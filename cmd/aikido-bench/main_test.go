package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckExperiment: every listed experiment is accepted, and a name
// that matches none — including the deleted deferred, parallel, vector,
// phase and static experiments — is rejected with the valid names
// listed, instead of running nothing and exiting 0.
func TestCheckExperiment(t *testing.T) {
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
		{"chaos", true},
		{"crew", true},
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
		if !strings.Contains(err.Error(), "fig5, fig6") || !strings.Contains(err.Error(), "chaos") {
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
