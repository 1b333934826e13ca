package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestCheckExperiment: every listed experiment is accepted, and a name
// that matches none — including the deleted deferred, parallel, vector,
// phase, static, chaos, crew, providers, stm, paging, switch and ablation
// experiments — is rejected with the valid names listed, instead of
// running nothing and exiting 0.
func TestCheckExperiment(t *testing.T) {
	const valid = "(want all, fig5, fig6, table1, table2, " +
		"detectors, muxbench, epochs, scaling, nondet)"
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"all", true},
		{"fig5", true},
		{"epochs", true},
		{"vector", false},
		{"phase", false},
		{"static", false},
		{"nondet", true},
		{"chaos", false},
		{"crew", false},
		{"providers", false},
		{"stm", false},
		{"paging", false},
		{"switch", false},
		{"ablation", false},
		{"deferred", false},
		{"parallel", false},
		{"", false},
		{"Fig5", false},
		{"fig5,fig6", false},
	} {
		err := checkExperiment(tc.name)
		if tc.ok {
			if err != nil {
				t.Errorf("checkExperiment(%q) = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkExperiment(%q) = nil, want an error", tc.name)
			continue
		}
		if !strings.HasSuffix(err.Error(), valid) {
			t.Errorf("checkExperiment(%q) = %q, want the valid names listed", tc.name, err)
		}
	}
}

// TestCheckScale: only finite positive scales are accepted.
func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{1, true},
		{0.25, true},
		{4, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{-3, false},
	} {
		if err := checkScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkScale(%v) = %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}
}

// TestCheckAnalyses: the empty value keeps the default selection (nil),
// names are parsed, a value made only of commas and spaces is rejected
// with a message pointing at the default, and so is a selection the
// analysis registry would refuse: an unknown name (the deleted sampler's
// included) or one analysis named twice.
func TestCheckAnalyses(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
		err  string // a substring of the error; "" when the value is valid
	}{
		{"", nil, ""},
		{"fasttrack", []string{"fasttrack"}, ""},
		{"ft, lockset", []string{"ft", "lockset"}, ""},
		{",", nil, "default"},
		{" , ,", nil, "default"},
		{"bogus", nil, "unknown analysis"},
		{"sampled", nil, "unknown analysis"},
		{"ft,fasttrack", nil, "selected twice"},
	} {
		got, err := checkAnalyses(tc.in)
		if (err == nil) != (tc.err == "") || !slices.Equal(got, tc.want) {
			t.Errorf("checkAnalyses(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.err == "")
		}
		if err != nil && !strings.Contains(err.Error(), tc.err) {
			t.Errorf("checkAnalyses(%q) = %q, want it to say %q", tc.in, err, tc.err)
		}
	}
}

// TestCheckThreads: a negative -threads is rejected instead of silently
// running the benchmark default; 0 still selects that default.
func TestCheckThreads(t *testing.T) {
	for _, tc := range []struct {
		threads int
		ok      bool
	}{
		{0, true},
		{1, true},
		{16, true},
		{-1, false},
		{-3, false},
	} {
		if err := checkThreads(tc.threads); (err == nil) != tc.ok {
			t.Errorf("checkThreads(%d) = %v, want ok=%v", tc.threads, err, tc.ok)
		}
	}
}
