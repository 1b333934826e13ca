package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/isa"
)

// errCompilePanic and errPlanted are the values the two planted fault
// sources panic with; a contained failure must carry them.
var (
	errCompilePanic = errors.New("planted compile-time panic")
	errPlanted      = errors.New("planted analysis panic")
)

// panicSource is a workload.Source whose compilation panics — the
// simplest way to detonate inside a worker without touching the guest.
type panicSource struct{}

func (panicSource) SourceName() string { return "panic-source" }
func (panicSource) Compile() (*isa.Program, error) {
	panic(errCompilePanic)
}

// panicAt40 is FastTrack that panics mid-run, at its 40th access hook: a
// detector bug deep inside an executing System, below every layer between
// the runner and the analysis.
const panicAt40 = "panic-at-40"

type panicAnalysis struct {
	analysis.Analysis
	accesses int
}

func init() {
	analysis.Register(panicAt40, func(env analysis.Env) (analysis.Analysis, error) {
		ft, err := analysis.New("fasttrack", env)
		if err != nil {
			return nil, err
		}
		return &panicAnalysis{Analysis: ft}, nil
	})
}

func (a *panicAnalysis) Name() string { return panicAt40 }

func (a *panicAnalysis) count() {
	if a.accesses++; a.accesses == 40 {
		panic(fmt.Errorf("%s: access %d: %w", panicAt40, a.accesses, errPlanted))
	}
}

func (a *panicAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.count()
	a.Analysis.OnAccess(tid, pc, addr, size, write)
}

func (a *panicAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.count()
	a.Analysis.OnSharedAccess(tid, pc, addr, size, write)
}

// cleanSpecs is the small matrix the containment tests plant failures
// in: four PARSEC models under native, FastTrack-full and Aikido.
func cleanSpecs(t *testing.T) []Spec {
	t.Helper()
	return testMatrix(t, 0.05)[:12]
}

// plantedCells are the cells that run panic-at-40 instead of FastTrack:
// one Aikido cell (blackscholes) and one FastTrack-full cell (raytrace).
// Both reach the 40th access at scale 0.05.
var plantedCells = []int{5, 10}

// containmentSpecs is cleanSpecs with four deterministic failures
// planted: a cell whose compilation panics (3), the two panic-at-40 cells
// and a bad-config cell (8).
func containmentSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := cleanSpecs(t)
	for _, i := range plantedCells {
		specs[i].Config.Analyses = []string{panicAt40}
	}
	specs[3] = Spec{Label: "boom", Source: panicSource{}, Config: core.DefaultConfig(core.ModeNative)}
	specs[8].Config = core.Config{Mode: core.Mode(99)}
	specs[8].Label = "bad-mode"
	return specs
}

// reportJSON serializes a report for byte-level comparison: every
// cell's label and result, then each failure's message. Error() leaves
// out the nondeterministic stack.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	msgs := make([]string, len(rep.Failed))
	for i, ce := range rep.Failed {
		msgs[i] = ce.Error()
	}
	b, err := json.Marshal(msgs)
	if err != nil {
		t.Fatal(err)
	}
	return string(resultsJSON(t, rep)) + string(b)
}

// completed counts the cells of a report that ran to completion.
func completed(rep *Report) int {
	n := 0
	for _, m := range rep.Cells {
		if m.Res != nil {
			n++
		}
	}
	return n
}

// TestSweepPanicContained: a panic at compile time or inside a running
// analysis becomes a typed panic CellError in Report.Failed, carrying the
// panicked error and a stack — the process (and the test binary)
// survives.
func TestSweepPanicContained(t *testing.T) {
	specs := containmentSpecs(t)
	rep := Sweep(specs, 2)
	for _, w := range []struct {
		index int
		cause error
	}{
		{3, errCompilePanic},
		{plantedCells[0], errPlanted},
		{plantedCells[1], errPlanted},
	} {
		var cerr *CellError
		for _, ce := range rep.Failed {
			if ce.Index == w.index {
				cerr = ce
			}
		}
		if cerr == nil {
			t.Errorf("cell %d: no failure recorded; failed = %v", w.index, rep.Failed)
			continue
		}
		if cerr.Label != specs[w.index].Label || cerr.Kind != FailPanic {
			t.Errorf("cell %d: error = %+v, want %s, panic", w.index, cerr, specs[w.index].Label)
		}
		if !errors.Is(cerr, w.cause) {
			t.Errorf("cell %d: error %v does not carry the panicked %v", w.index, cerr, w.cause)
		}
		if cerr.Stack == "" {
			t.Errorf("cell %d: panic CellError carries no stack", w.index)
		}
		if msg := cerr.Error(); !strings.Contains(msg, fmt.Sprintf("cell %d", w.index)) || !strings.Contains(msg, "panic") {
			t.Errorf("cell %d: error %q does not name the cell and kind", w.index, msg)
		}
	}
}

// TestSweepErrorDeterministic: when several cells fail, Report.Failed
// lists every failure in spec order with its kind and cause, regardless of
// worker count: which cell fails is a property of the cell, never of
// scheduling.
func TestSweepErrorDeterministic(t *testing.T) {
	specs := containmentSpecs(t)
	want := []struct {
		index int
		kind  FailKind
		cause error
	}{
		{3, FailPanic, errCompilePanic},
		{plantedCells[0], FailPanic, errPlanted},
		{8, FailRun, nil},
		{plantedCells[1], FailPanic, errPlanted},
	}
	for _, workers := range []int{1, 2, 8} {
		rep := Sweep(specs, workers)
		if len(rep.Failed) != len(want) {
			t.Fatalf("workers=%d: failed = %v, want cells 3, 5, 8 and 10 in order", workers, rep.Failed)
		}
		for i, w := range want {
			ce := rep.Failed[i]
			if ce.Index != w.index || ce.Label != specs[w.index].Label || ce.Kind != w.kind {
				t.Errorf("workers=%d: failed[%d] = cell %d (%s, %s), want cell %d (%s, %s)",
					workers, i, ce.Index, ce.Label, ce.Kind, w.index, specs[w.index].Label, w.kind)
			}
			if w.cause != nil && !errors.Is(ce, w.cause) {
				t.Errorf("workers=%d: cell %d: error %v does not carry %v", workers, ce.Index, ce.Err, w.cause)
			}
		}
	}
}

// TestKeepGoingByteIdentical: a sweep keeps going past failing cells, and
// a failing cell changes no other cell: every other cell runs to
// completion, its Result equals the same cell's in a sweep with nothing
// planted, and the report — results and failure messages — is
// byte-identical at 1, 4 and 8 workers.
func TestKeepGoingByteIdentical(t *testing.T) {
	specs := containmentSpecs(t)
	ref := Sweep(specs, 1)
	if n := completed(ref); n != len(specs)-4 {
		t.Errorf("completed cells = %d, want %d (all but the four planted failures)", n, len(specs)-4)
	}

	clean := Sweep(cleanSpecs(t), 2)
	if len(clean.Failed) != 0 {
		t.Fatalf("clean sweep failed: %v", clean.Failed)
	}
	for i, m := range ref.Cells {
		if m.Res != nil && !reflect.DeepEqual(m.Res, clean.Cells[i].Res) {
			t.Errorf("cell %d (%s): result differs from the clean sweep's", i, m.Spec.Label)
		}
	}

	refJSON := reportJSON(t, ref)
	for _, workers := range []int{4, 8} {
		if got := reportJSON(t, Sweep(specs, workers)); got != refJSON {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// TestCellDeadline: an unmeetable per-cell deadline on the simulated
// clock (Config.MaxCycles of one cycle) fails every cell with a typed
// budget error instead of running it to completion.
func TestCellDeadline(t *testing.T) {
	specs := testMatrix(t, 0.05)[:3]
	for i := range specs {
		specs[i].Config.MaxCycles = 1
	}
	rep := Sweep(specs, 1)
	if len(rep.Failed) != len(specs) {
		t.Fatalf("failed %d of %d cells under a 1-cycle budget", len(rep.Failed), len(specs))
	}
	for _, ce := range rep.Failed {
		if ce.Kind != FailBudget {
			t.Errorf("cell %d kind = %s, want budget", ce.Index, ce.Kind)
		}
		var be *core.BudgetError
		if !errors.As(ce, &be) {
			t.Errorf("cell %d error does not unwrap to *core.BudgetError: %v", ce.Index, ce.Err)
		} else if be.Limit != 1 || be.Used <= be.Limit {
			t.Errorf("cell %d budget error = %+v, want limit 1, used > limit", ce.Index, be)
		}
	}
}
