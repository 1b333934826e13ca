package experiments

import (
	"strings"
	"testing"
)

// TestChaosSweepSurvives: a plan that detonates in-guest (per-quantum
// errors, analysis-hook panics) completes the whole matrix with typed,
// deterministic failures — ChaosSweep's own internal contract checks
// (typing, workers-1 byte-identity) return nil error.
func TestChaosSweepSurvives(t *testing.T) {
	o := Options{Scale: 0.05, Workers: 4}
	rep, err := ChaosSweep(o, "seed=3;panic:analysis@60;error:guest@7")
	if err != nil {
		t.Fatalf("chaos sweep violated a containment contract: %v", err)
	}
	if !rep.TypedErrors || !rep.Deterministic {
		t.Fatalf("report flags: typed=%v deterministic=%v, want both true", rep.TypedErrors, rep.Deterministic)
	}
	if rep.FailedCells == 0 {
		t.Error("plan injected no failures — the survival claim is vacuous")
	}
	if rep.Completed+rep.FailedCells != rep.Cells {
		t.Errorf("cells don't reconcile: %d completed + %d failed != %d",
			rep.Completed, rep.FailedCells, rep.Cells)
	}

	var out strings.Builder
	WriteChaos(&out, rep)
	for _, want := range []string{"Chaos sweep", "deterministic across worker counts: true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, out.String())
		}
	}
}

// TestChaosSweepDegrades: provider-seam faults are absorbed by the
// degradation ladder — the sweep completes every cell (zero failures)
// while counting the rearm vetoes it paid. Scale 0.5 so the epoch cells
// actually reach demotion (the provider seam's only crossing site).
func TestChaosSweepDegrades(t *testing.T) {
	rep, err := ChaosSweep(Options{Scale: 0.5, Workers: 4}, "panic:provider@1")
	if err != nil {
		t.Fatalf("degradation sweep: %v", err)
	}
	if rep.FailedCells != 0 {
		t.Errorf("degradable faults failed %d cells: %+v", rep.FailedCells, rep.Failed)
	}
	if rep.RearmFailures == 0 {
		t.Error("provider-seam panic produced no rearm failure")
	}
	if !rep.Deterministic {
		t.Error("degraded report differs across worker counts")
	}
}

// TestChaosSweepEmptyPlan: no plan at all — zero failures, and the
// idle-overhead identity (chaos-stamped matrix vs bare matrix) holds.
func TestChaosSweepEmptyPlan(t *testing.T) {
	rep, err := ChaosSweep(Options{Scale: 0.05, Workers: 4}, "")
	if err != nil {
		t.Fatalf("empty-plan sweep: %v", err)
	}
	if rep.FailedCells != 0 || len(rep.Failed) != 0 {
		t.Errorf("empty plan failed %d cells: %+v", rep.FailedCells, rep.Failed)
	}
	if rep.Plan != "" {
		t.Errorf("empty plan rendered as %q", rep.Plan)
	}
	if rep.RearmFailures != 0 {
		t.Errorf("empty plan recorded %d rearm failures", rep.RearmFailures)
	}
}

// TestChaosSweepBadPlan: grammar errors surface as parse errors, not
// sweeps.
func TestChaosSweepBadPlan(t *testing.T) {
	if _, err := ChaosSweep(Options{Scale: 0.05}, "explode:everything"); err == nil {
		t.Fatal("bad plan accepted")
	}
}
