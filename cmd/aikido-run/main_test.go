package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/parsec"
)

// TestRunRejectsBadScale: a -scale that is not a finite positive number
// is a usage error, not a run at some other size.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "0", "-2"} {
		if code := run([]string{"-scale", scale}); code != exitBadFlags {
			t.Errorf("run(-scale %s) = %d, want %d", scale, code, exitBadFlags)
		}
	}
}

// TestRunRejectsBadFlags: a negative -threads, the deleted -dispatch,
// -epoch, -chaos, -races, -provider, -paging, -switch, -max-findings,
// -cell-deadline and -keep-going flags and the deleted profile mode are
// usage errors, and so is every flag the selected stack would ignore:
// analyses in the native and dbi modes. An -analysis value that names no
// analysis is one too: -analysis none is the one spelling of "no
// analysis". None of them runs anything.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "fluidanimate", "-threads", "-2"},
		{"-bench", "fluidanimate", "-dispatch", "phased"},
		{"-bench", "fluidanimate", "-epoch"},
		{"-bench", "fluidanimate", "-chaos", "X"},
		{"-bench", "vips", "-scale", "0.05", "-mode", "profile"},
		{"-bench", "vips", "-scale", "0.05", "-races"},
		{"-bench", "vips", "-scale", "0.05", "-provider", "aikidovm"},
		// -paging and -switch are unknown flags under every mode.
		{"-bench", "vips", "-scale", "0.05", "-mode", "native", "-paging", "nested"},
		{"-bench", "vips", "-scale", "0.05", "-mode", "aikido", "-paging", "nested"},
		{"-bench", "vips", "-scale", "0.05", "-mode", "aikido", "-switch", "probe"},
		{"-bench", "vips", "-scale", "0.05", "-mode", "dbi", "-analysis", "lockset"},
		// The findings cap, wall-clock deadline and fail-fast switch are
		// gone: every sweep runs every cell.
		{"-bench", "vips", "-scale", "0.05", "-max-findings", "5"},
		{"-bench", "vips", "-scale", "0.05", "-cell-deadline", "1s"},
		{"-bench", "all", "-scale", "0.05", "-keep-going"},
		{"-bench", "vips", "-scale", "0.05", "-mode", "aikido", "-analysis", ","},
		{"-bench", "vips", "-scale", "0.05", "-mode", "fasttrack", "-analysis", " , ,"},
		// Names the registry refuses, the deleted sampler's included.
		{"-bench", "vips", "-scale", "0.05", "-analysis", "sampled"},
		{"-bench", "vips", "-scale", "0.05", "-analysis", "sampled:lockset"},
		{"-bench", "vips", "-scale", "0.05", "-analysis", "bogus"},
		{"-bench", "vips", "-scale", "0.05", "-analysis", "ft,fasttrack"},
	} {
		if code := run(args); code != exitBadFlags {
			t.Errorf("run(%v) = %d, want %d", args, code, exitBadFlags)
		}
	}
}

// TestRunCellErrorExit: a run whose cells fail exits with exitCellError,
// on the sweep path and the single-model path alike, and names every
// failed cell. A one-cycle budget fails every cell with a typed budget
// error.
func TestRunCellErrorExit(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		models []string
	}{
		{[]string{"-bench", "all", "-scale", "0.05", "-max-cycles", "1"}, parsec.Names()},
		{[]string{"-bench", "vips", "-scale", "0.05", "-max-cycles", "1"}, []string{"vips"}},
	} {
		_, stderr, code := runCaptured(t, tc.args...)
		if code != exitCellError {
			t.Errorf("run(%v) = %d, want %d", tc.args, code, exitCellError)
		}
		for i, name := range tc.models {
			if want := fmt.Sprintf("failed cell %d (%s): budget: ", i, name); !strings.Contains(stderr, want) {
				t.Errorf("run(%v): stderr does not name %q:\n%s", tc.args, want, stderr)
			}
		}
	}
}

// TestRunAnalysisNone: "-analysis none" under -mode aikido runs AikidoSD
// alone, a sharing profiler: the run is clean and prints its sharing
// statistics, and AikidoVM's fault and hypercall counts once each, but no
// analysis line.
func TestRunAnalysisNone(t *testing.T) {
	out, _, code := runCaptured(t, "-bench", "vips", "-scale", "0.05", "-mode", "aikido", "-analysis", "none")
	if code != exitClean {
		t.Errorf("exit = %d, want %d", code, exitClean)
	}
	if !strings.Contains(out, "\nshared accesses ") {
		t.Errorf("no sharing statistics in:\n%s", out)
	}
	for _, line := range []string{"\naikido faults ", "\nhypercalls "} {
		if n := strings.Count(out, line); n != 1 {
			t.Errorf("%q printed %d times, want once:\n%s", line[1:], n, out)
		}
	}
	for _, line := range []string{"\nprot ops ", "\nprovider faults "} {
		if strings.Contains(out, line) {
			t.Errorf("%q printed; it repeats a count printed above:\n%s", line[1:], out)
		}
	}
	if strings.Contains(out, "\nanalysis ") {
		t.Errorf("an analysis ran:\n%s", out)
	}
}

// runCaptured calls run with args and returns what it printed to stdout
// and to stderr.
func runCaptured(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	capture := func(f **os.File) (restore func() string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := *f
		*f = w
		out := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			out <- string(b)
		}()
		return func() string {
			*f = saved
			w.Close()
			return <-out
		}
	}
	restoreOut, restoreErr := capture(&os.Stdout), capture(&os.Stderr)
	code = run(args)
	return restoreOut(), restoreErr(), code
}
