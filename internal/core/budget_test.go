package core

import (
	"errors"
	"testing"

	"repro/internal/parsec"
	"repro/internal/workload"
)

// TestBudgetMaxCycles pins the simulated-cycle budget's boundary
// semantics: a budget equal to the run's own total never fires (the
// check is strict and only reads the clock at quantum boundaries, where
// consumption is still below the final total), a budget of half the
// total fires a typed *BudgetError, and the error's Used value is
// deterministic across repeated runs.
func TestBudgetMaxCycles(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.1)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}

	exact := DefaultConfig(ModeAikidoFastTrack)
	exact.MaxCycles = base.Cycles
	res, err := Run(prog, exact)
	if err != nil {
		t.Fatalf("budget == total cycles tripped: %v", err)
	}
	if res.Cycles != base.Cycles {
		t.Errorf("arming an unmet budget changed cycles: %d vs %d", res.Cycles, base.Cycles)
	}

	half := DefaultConfig(ModeAikidoFastTrack)
	half.MaxCycles = base.Cycles / 2
	_, err = Run(prog, half)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("half budget: error %T is not *BudgetError: %v", err, err)
	}
	if be.Limit != half.MaxCycles || be.Used <= be.Limit {
		t.Errorf("budget error = %+v, want limit %d, used > limit", be, half.MaxCycles)
	}

	_, err2 := Run(prog, half)
	var be2 *BudgetError
	if !errors.As(err2, &be2) {
		t.Fatalf("repeat run: %v", err2)
	}
	if be2.Used != be.Used {
		t.Errorf("budget overrun is nondeterministic: used %d then %d", be.Used, be2.Used)
	}
}
