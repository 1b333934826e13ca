package runner

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/parsec"
)

// panicSource is a workload.Source whose compilation panics — the
// simplest way to detonate inside a worker without touching the guest.
type panicSource struct{}

func (panicSource) SourceName() string { return "panic-source" }
func (panicSource) Compile() (*isa.Program, error) {
	panic(errors.New("injected compile-time panic"))
}

// chaosSpecs is a small matrix with two deterministic failures planted:
// a panicking cell and a bad-config cell.
func chaosSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := testMatrix(t, 0.05)[:12]
	specs[3] = Spec{Label: "boom", Source: panicSource{}, Config: core.DefaultConfig(core.ModeNative)}
	specs[8].Config = core.Config{Mode: core.Mode(99), Costs: specs[8].Config.Costs}
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

// TestSweepPanicContained: a panicking cell becomes a typed CellError —
// the process (and the test binary) survives, and on the fail-fast path
// the partial report still carries the completed measurements.
func TestSweepPanicContained(t *testing.T) {
	specs := chaosSpecs(t)

	rep, err := Sweep(specs, Options{Workers: 1})
	if err == nil {
		t.Fatal("no error from a sweep with a panicking cell")
	}
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %T is not *CellError: %v", err, err)
	}
	if cerr.Index != 3 || cerr.Label != "boom" || cerr.Kind != FailPanic {
		t.Errorf("cell error = %+v, want index 3 (boom, panic)", cerr)
	}
	if cerr.Stack == "" {
		t.Error("panic CellError carries no stack")
	}
	if !strings.Contains(err.Error(), "cell 3") || !strings.Contains(err.Error(), "panic") {
		t.Errorf("error %q does not name the cell and kind", err)
	}
	if rep == nil {
		t.Fatal("fail-fast sweep discarded the partial report")
	}
	// Workers=1 claims sequentially: cells 0..2 completed before the
	// panic, so the salvage is deterministic here.
	if n := completed(rep); n != 3 {
		t.Errorf("partial report has %d completed cells, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if rep.Cells[i].Res == nil {
			t.Errorf("completed cell %d missing from partial report", i)
		}
	}
}

// TestKeepGoingByteIdentical: the KeepGoing report — completed cells and
// failed list — is byte-identical across worker counts, with
// failed cells in canonical spec order.
func TestKeepGoingByteIdentical(t *testing.T) {
	specs := chaosSpecs(t)
	ref, err := Sweep(specs, Options{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatalf("KeepGoing returned an error: %v", err)
	}
	if len(ref.Failed) != 2 || ref.Failed[0].Index != 3 || ref.Failed[1].Index != 8 {
		t.Fatalf("failed = %+v, want cells 3 and 8 in order", ref.Failed)
	}
	if ref.Failed[0].Kind != FailPanic || ref.Failed[1].Kind != FailRun {
		t.Errorf("failure kinds = %s, %s; want panic, run", ref.Failed[0].Kind, ref.Failed[1].Kind)
	}
	if n := completed(ref); n != len(specs)-2 {
		t.Errorf("completed cells = %d, want %d", n, len(specs)-2)
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

// TestKeepGoingChaosPlanByteIdentical: an injected in-guest fault (chaos
// plan) fails the same cells with the same typed errors at any worker
// count — the acceptance criterion of the chaos harness.
func TestKeepGoingChaosPlanByteIdentical(t *testing.T) {
	plan, err := faultinject.ParsePlan("seed=5;panic:analysis@40;error:guest@9")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, b := range parsec.All()[:4] {
		b = b.WithScale(0.05)
		for _, m := range []core.Mode{core.ModeNative, core.ModeFastTrackFull, core.ModeAikidoFastTrack} {
			cfg := core.DefaultConfig(m)
			cfg.Chaos = plan
			specs = append(specs, Spec{Label: b.Name + "/" + m.String(), Workload: b.Spec, Config: cfg})
		}
	}
	ref, err := Sweep(specs, Options{Workers: 1, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Failed) == 0 {
		t.Fatal("chaos plan injected no failures")
	}
	for _, ce := range ref.Failed {
		var f *faultinject.Fault
		if !errors.As(ce, &f) {
			t.Errorf("cell %d failed with untyped error: %v", ce.Index, ce.Err)
		}
	}
	refJSON := keepGoingJSON(t, ref)
	for _, workers := range []int{4, 8} {
		rep, err := Sweep(specs, Options{Workers: workers, KeepGoing: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := keepGoingJSON(t, rep); got != refJSON {
			t.Errorf("workers=%d: chaos report differs from workers=1", workers)
		}
	}
}

// TestCellDeadline: an (unmeetably small) per-cell wall deadline fails
// cells with a typed budget error instead of hanging or crashing.
func TestCellDeadline(t *testing.T) {
	specs := testMatrix(t, 0.05)[:3]
	rep, err := Sweep(specs, Options{Workers: 1, KeepGoing: true, CellDeadline: time.Nanosecond})
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
