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

// TestRunRejectsBadFlags: a negative -threads and the deleted -dispatch
// flag are usage errors; neither runs anything.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "fluidanimate", "-threads", "-2"},
		{"-bench", "fluidanimate", "-dispatch", "phased"},
	} {
		if code := run(args); code != exitBadFlags {
			t.Errorf("run(%v) = %d, want %d", args, code, exitBadFlags)
		}
	}
}
