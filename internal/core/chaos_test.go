package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/workload"
)

func mustPlan(t *testing.T, s string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.ParsePlan(s)
	if err != nil {
		t.Fatalf("plan %q: %v", s, err)
	}
	return p
}

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
	if be.Resource != "cycles" || be.Limit != half.MaxCycles || be.Used <= be.Limit {
		t.Errorf("budget error = %+v, want cycles, limit %d, used > limit", be, half.MaxCycles)
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

// TestStallChargesClock: a stall-kind fault at the guest seam charges
// faultinject.StallCycles to the simulated clock, so a budget the clean
// run satisfies now trips — the stall surfaces as a typed budget error
// rather than hanging anything.
func TestStallChargesClock(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.1)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.MaxCycles = base.Cycles // provably sufficient without the stall
	cfg.Chaos = mustPlan(t, "stall:guest@3")
	_, err = Run(prog, cfg)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("stalled run: error %T is not *BudgetError: %v", err, err)
	}
	if be.Used < faultinject.StallCycles {
		t.Errorf("budget Used = %d, want >= the injected stall (%d)", be.Used, uint64(faultinject.StallCycles))
	}
}

// TestGuestErrorAbortsRun: an error-kind fault at the guest seam aborts
// the run with the typed *faultinject.Fault (no panic, no partial
// corruption — Run returns like any other error path).
func TestGuestErrorAbortsRun(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.1)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Chaos = mustPlan(t, "error:guest@4")
	_, err = Run(prog, cfg)
	var f *faultinject.Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %T is not *faultinject.Fault: %v", err, err)
	}
	if f.Seam != faultinject.SeamGuest || f.Kind != faultinject.KindError || f.Count != 4 {
		t.Errorf("fault = %+v, want error:guest@4", f)
	}
}

// TestChaosEmptyPlanByteIdentical: a ruleless plan (seed only — the
// parser refuses to build one, so construct it directly) must leave a
// run byte-identical to no plan at all — the acceptance criterion that
// chaos wiring costs nothing when idle.
func TestChaosEmptyPlanByteIdentical(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.25)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	plain, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = &faultinject.Plan{Seed: 7}
	armed, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Errorf("empty chaos plan perturbed the run:\nplain: %+v\narmed: %+v", plain, armed)
	}
}

// TestRearmFailureDegrades is the provider-seam degradation ladder: a
// panicking RearmPage during epoch demotion must not abort the run or
// corrupt shadow state — the page stays Shared and protected (soundness
// intact), is never demoted again, and the failure is counted. Other
// pages keep demoting.
func TestRearmFailureDegrades(t *testing.T) {
	phased := workload.PhasedSpec{
		Name: "phased", Threads: 8, Phases: 6, PhaseIters: 200,
		PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, WarmupOps: 1,
	}
	prog, err := phased.Compile()
	if err != nil {
		t.Fatal(err)
	}
	epochCfg := DefaultConfig(ModeAikidoFastTrack)
	epochCfg.Epoch = sharing.DefaultEpochPolicy()
	base, err := Run(prog, epochCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.SD.PagesDemotedPrivate == 0 {
		t.Fatal("baseline epoch run demoted nothing — chaos assertions would be vacuous")
	}
	if base.SD.RearmFailures != 0 {
		t.Fatalf("baseline run reports %d rearm failures", base.SD.RearmFailures)
	}

	chaosCfg := epochCfg
	chaosCfg.Chaos = mustPlan(t, "panic:provider@1")
	res, err := Run(prog, chaosCfg)
	if err != nil {
		t.Fatalf("rearm failure aborted the run: %v", err)
	}
	if res.SD.RearmFailures != 1 {
		t.Errorf("RearmFailures = %d, want exactly 1 (one-shot trigger)", res.SD.RearmFailures)
	}
	if res.SD.PagesDemotedPrivate == 0 {
		t.Error("one failed rearm disabled demotion for every page, not just the victim")
	}
	if got, want := len(racesOf(res)), len(racesOf(base)); got != want {
		t.Errorf("degraded run changed findings: %d races vs %d", got, want)
	}
}
