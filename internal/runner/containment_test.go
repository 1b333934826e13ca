package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

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

// plantedSpecs is cleanSpecs with the analysis panics planted.
func plantedSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := cleanSpecs(t)
	for _, i := range plantedCells {
		specs[i].Config.Analyses = []string{panicAt40}
	}
	return specs
}

// containmentSpecs adds two more deterministic failures to plantedSpecs:
// a cell whose compilation panics (3) and a bad-config cell (8).
func containmentSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := plantedSpecs(t)
	specs[3] = Spec{Label: "boom", Source: panicSource{}, Config: core.DefaultConfig(core.ModeNative)}
	specs[8].Config = core.Config{Mode: core.Mode(99)}
	specs[8].Label = "bad-mode"
	return specs
}

// keepGoingJSON is the deterministic serialization of a KeepGoing
// report: cells (label + result) plus the failed list. CellError's
// MarshalJSON already excludes the nondeterministic stack.
func keepGoingJSON(t *testing.T, rep *Report) string {
	t.Helper()
	type doc struct {
		Cells  json.RawMessage `json:"cells"`
		Failed []*CellError    `json:"failed"`
	}
	b, err := json.Marshal(doc{Cells: resultsJSON(t, rep), Failed: rep.Failed})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
// analysis becomes a typed CellError carrying the panicked error — the
// process (and the test binary) survives, and on the fail-fast path the
// partial report still carries the completed measurements.
func TestSweepPanicContained(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []Spec
		first int
		cause error
	}{
		{"compile", containmentSpecs(t), 3, errCompilePanic},
		{"analysis", plantedSpecs(t), plantedCells[0], errPlanted},
	} {
		rep, err := Sweep(tc.specs, Options{Workers: 1})
		if err == nil {
			t.Fatalf("%s: no error from a sweep with a panicking cell", tc.name)
		}
		var cerr *CellError
		if !errors.As(err, &cerr) {
			t.Fatalf("%s: error %T is not *CellError: %v", tc.name, err, err)
		}
		if cerr.Index != tc.first || cerr.Label != tc.specs[tc.first].Label || cerr.Kind != FailPanic {
			t.Errorf("%s: cell error = %+v, want index %d (%s, panic)",
				tc.name, cerr, tc.first, tc.specs[tc.first].Label)
		}
		if !errors.Is(err, tc.cause) {
			t.Errorf("%s: error %v does not carry the panicked %v", tc.name, err, tc.cause)
		}
		if cerr.Stack == "" {
			t.Errorf("%s: panic CellError carries no stack", tc.name)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("cell %d", tc.first)) || !strings.Contains(msg, "panic") {
			t.Errorf("%s: error %q does not name the cell and kind", tc.name, msg)
		}
		if rep == nil {
			t.Fatalf("%s: fail-fast sweep discarded the partial report", tc.name)
		}
		// Workers=1 claims sequentially: every cell before the first
		// failure completed, so the salvage is deterministic here.
		if n := completed(rep); n != tc.first {
			t.Errorf("%s: partial report has %d completed cells, want %d", tc.name, n, tc.first)
		}
		for i := 0; i < tc.first; i++ {
			if rep.Cells[i].Res == nil {
				t.Errorf("%s: completed cell %d missing from partial report", tc.name, i)
			}
		}
	}
}

// TestKeepGoingByteIdentical: the KeepGoing report — completed cells and
// failed list — is byte-identical across worker counts, with failed
// cells in canonical spec order and the planted analysis panics typed as
// FailPanic. A failing cell changes no other cell: every completed
// cell's Result equals the same cell's in a sweep with nothing planted.
func TestKeepGoingByteIdentical(t *testing.T) {
	specs := containmentSpecs(t)
	ref, err := Sweep(specs, Options{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatalf("KeepGoing returned an error: %v", err)
	}
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
	if len(ref.Failed) != len(want) {
		t.Fatalf("failed = %+v, want cells 3, 5, 8 and 10 in order", ref.Failed)
	}
	for i, w := range want {
		ce := ref.Failed[i]
		if ce.Index != w.index || ce.Kind != w.kind {
			t.Errorf("failed[%d] = cell %d (%s), want cell %d (%s)", i, ce.Index, ce.Kind, w.index, w.kind)
		}
		if w.cause != nil && !errors.Is(ce, w.cause) {
			t.Errorf("cell %d: error %v does not carry the panicked %v", ce.Index, ce.Err, w.cause)
		}
	}
	if n := completed(ref); n != len(specs)-len(want) {
		t.Errorf("completed cells = %d, want %d", n, len(specs)-len(want))
	}

	clean, err := Sweep(cleanSpecs(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ref.Cells {
		if m.Res != nil && !reflect.DeepEqual(m.Res, clean.Cells[i].Res) {
			t.Errorf("cell %d (%s): result differs from the clean sweep's", i, m.Spec.Label)
		}
	}

	refJSON := keepGoingJSON(t, ref)
	for _, workers := range []int{4, 8} {
		rep, err := Sweep(specs, Options{Workers: workers, KeepGoing: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := keepGoingJSON(t, rep); got != refJSON {
			t.Errorf("workers=%d: KeepGoing report differs from workers=1", workers)
		}
	}
}

// TestCellDeadline: an (unmeetably small) per-cell wall budget fails
// cells with a typed budget error instead of hanging or crashing.
func TestCellDeadline(t *testing.T) {
	specs := testMatrix(t, 0.05)[:3]
	for i := range specs {
		specs[i].Config.MaxWall = time.Nanosecond
	}
	rep, err := Sweep(specs, Options{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != len(specs) {
		t.Fatalf("failed %d of %d cells under a 1ns deadline", len(rep.Failed), len(specs))
	}
	for _, ce := range rep.Failed {
		if ce.Kind != FailBudget {
			t.Errorf("cell %d kind = %s, want budget", ce.Index, ce.Kind)
		}
		var be *core.BudgetError
		if !errors.As(ce, &be) {
			t.Errorf("cell %d error does not unwrap to *core.BudgetError: %v", ce.Index, ce.Err)
		} else if be.Resource != "wall" {
			t.Errorf("cell %d budget resource = %q, want wall", ce.Index, be.Resource)
		}
	}
}

// TestCellErrorJSON: the serialized failure excludes the stack and
// renders the documented schema.
func TestCellErrorJSON(t *testing.T) {
	ce := &CellError{Index: 2, Label: "vips/Aikido", Kind: FailPanic,
		Err: errors.New("boom"), Stack: "goroutine 7 [running]..."}
	b, err := json.Marshal(ce)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	want := `{"index":2,"label":"vips/Aikido","kind":"panic","error":"boom"}`
	if got != want {
		t.Errorf("json = %s, want %s", got, want)
	}
	if strings.Contains(got, "goroutine") {
		t.Error("stack leaked into JSON")
	}
}
