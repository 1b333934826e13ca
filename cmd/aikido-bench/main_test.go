package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// runArgs runs the command on args and returns its exit status, stdout
// and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExperimentsGolden pins every number aikido-bench prints: the text
// of -experiment all at scale 1, every table of the evaluation and every
// extension, against testdata/experiments.golden. -update regenerates
// the file, which only a change meant to move a result may do.
func TestExperimentsGolden(t *testing.T) {
	code, got, stderr := runArgs("-experiment", "all", "-scale", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("output differs from %s at line %d:\n  want %q\n  got  %q", path, i+1, w, g)
		}
	}
}

// TestEquivalenceLegs runs the -json report seven ways at scale 0.25 and
// checks the three contracts that hold between them. The runner's:
// the report is byte-identical at any worker count, with the default
// analysis (w1, w8) and with the four core detectors multiplexed onto
// each cell (mux4-w1, mux4-w8). The analysis registry's: naming the
// default analysis explicitly, by name or alias, leaves the report
// byte-identical (an-default, an-fasttrack, an-ft).
func TestEquivalenceLegs(t *testing.T) {
	const mux4 = "fasttrack,lockset,atomicity,commgraph"
	legs := map[string][]string{
		"w1":           {"-workers", "1"},
		"w8":           {"-workers", "8"},
		"mux4-w1":      {"-workers", "1", "-analysis", mux4},
		"mux4-w8":      {"-workers", "8", "-analysis", mux4},
		"an-default":   {"-workers", "4"},
		"an-fasttrack": {"-workers", "4", "-analysis", "fasttrack"},
		"an-ft":        {"-workers", "4", "-analysis", "ft"},
	}
	out := map[string]string{}
	for leg, args := range legs {
		code, stdout, stderr := runArgs(append([]string{"-json", "-", "-scale", "0.25"}, args...)...)
		if code != 0 || stdout == "" {
			t.Fatalf("%s: exit %d, %d bytes: %s", leg, code, len(stdout), stderr)
		}
		out[leg] = stdout
	}
	for _, pair := range [][2]string{
		{"w1", "w8"},
		{"mux4-w1", "mux4-w8"},
		{"an-default", "an-fasttrack"},
		{"an-default", "an-ft"},
	} {
		if out[pair[0]] != out[pair[1]] {
			t.Errorf("-json reports of legs %s and %s differ", pair[0], pair[1])
		}
	}
	if out["w1"] == out["mux4-w1"] {
		t.Error("the four-detector report equals the default one: -analysis was not applied")
	}
}

// TestCheckExperiment: every listed experiment runs, and a name that
// matches none — including the deleted deferred, parallel, vector,
// phase, static, chaos, crew, providers, stm, paging, switch and
// ablation experiments — exits 2 with the valid names listed, instead of
// running nothing and exiting 0.
func TestCheckExperiment(t *testing.T) {
	const valid = "(want all, fig5, fig6, table1, table2, " +
		"detectors, muxbench, epochs, scaling, nondet)\n"
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
		code, stdout, stderr := runArgs("-experiment", tc.name, "-scale", "0.05")
		if tc.ok {
			if code != 0 || stdout == "" {
				t.Errorf("-experiment %q: exit %d, %d bytes of output: %s", tc.name, code, len(stdout), stderr)
			}
			continue
		}
		if code != 2 || stdout != "" {
			t.Errorf("-experiment %q: exit %d, %d bytes of output; want exit 2 and none", tc.name, code, len(stdout))
			continue
		}
		if !strings.HasSuffix(stderr, valid) {
			t.Errorf("-experiment %q: stderr %q, want the valid names listed", tc.name, stderr)
		}
	}
}

// TestCheckScale: only finite positive scales run; any other -scale
// exits 2 before any cell runs.
func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale string
		ok    bool
	}{
		{"1", true},
		{"0.25", true},
		{"4", true},
		{"NaN", false},
		{"+Inf", false},
		{"-Inf", false},
		{"0", false},
		{"-3", false},
	} {
		// nondet is the cheapest experiment, at scale 4 too.
		code, _, stderr := runArgs("-experiment", "nondet", "-scale", tc.scale)
		if want := map[bool]int{true: 0, false: 2}[tc.ok]; code != want {
			t.Errorf("-scale %s: exit %d, want %d: %s", tc.scale, code, want, stderr)
		}
	}
}

// TestCheckAnalyses: the empty value keeps the default selection, names
// and aliases run, a value made only of commas and spaces exits 2 with a
// message pointing at the default, and so does a selection the analysis
// registry would refuse: an unknown name (the deleted sampler's
// included) or one analysis named twice.
func TestCheckAnalyses(t *testing.T) {
	for _, tc := range []struct {
		in  string
		err string // a substring of stderr; "" when the value is valid
	}{
		{"", ""},
		{"fasttrack", ""},
		{"ft, lockset", ""},
		{",", "default"},
		{" , ,", "default"},
		{"bogus", "unknown analysis"},
		{"sampled", "unknown analysis"},
		{"ft,fasttrack", "selected twice"},
	} {
		code, _, stderr := runArgs("-experiment", "fig5", "-scale", "0.05", "-analysis", tc.in)
		if tc.err == "" {
			if code != 0 {
				t.Errorf("-analysis %q: exit %d, want 0: %s", tc.in, code, stderr)
			}
			continue
		}
		if code != 2 || !strings.Contains(stderr, tc.err) {
			t.Errorf("-analysis %q: exit %d, stderr %q; want exit 2 and %q", tc.in, code, stderr, tc.err)
		}
	}
}

// TestCheckThreads: a negative -threads exits 2 instead of silently
// running the benchmark default; 0 still selects that default.
func TestCheckThreads(t *testing.T) {
	for _, tc := range []struct {
		threads string
		ok      bool
	}{
		{"0", true},
		{"1", true},
		{"16", true},
		{"-1", false},
		{"-3", false},
	} {
		code, _, stderr := runArgs("-experiment", "fig6", "-scale", "0.05", "-threads", tc.threads)
		if want := map[bool]int{true: 0, false: 2}[tc.ok]; code != want {
			t.Errorf("-threads %s: exit %d, want %d: %s", tc.threads, code, want, stderr)
		}
	}
}
