package main

import "testing"

// TestRunRejectsBadScale: a -scale that is not a finite positive number
// is a usage error, not a run at some other size.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "0", "-2"} {
		if code := run([]string{"-scale", scale}); code != exitBadFlags {
			t.Errorf("run(-scale %s) = %d, want %d", scale, code, exitBadFlags)
		}
	}
}

// TestRunRejectsBadFlags: a negative -threads or -max-findings and the
// deleted -dispatch, -epoch and -chaos flags are usage errors; none of
// them runs anything.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "fluidanimate", "-threads", "-2"},
		{"-bench", "fluidanimate", "-dispatch", "phased"},
		{"-bench", "fluidanimate", "-epoch"},
		{"-bench", "fluidanimate", "-chaos", "X"},
		{"-bench", "canneal", "-scale", "0.05", "-max-findings", "-1"},
	} {
		if code := run(args); code != exitBadFlags {
			t.Errorf("run(%v) = %d, want %d", args, code, exitBadFlags)
		}
	}
}

// TestRunCellErrorExit: a run whose cells fail exits with exitCellError,
// on the sweep path under -keep-going and on the single-model fail-fast
// path alike. A one-cycle budget fails every cell with a typed budget
// error.
func TestRunCellErrorExit(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "all", "-scale", "0.05", "-max-cycles", "1", "-keep-going"},
		{"-bench", "vips", "-scale", "0.05", "-max-cycles", "1"},
	} {
		if code := run(args); code != exitCellError {
			t.Errorf("run(%v) = %d, want %d", args, code, exitCellError)
		}
	}
}
