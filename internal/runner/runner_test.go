package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parsec"
)

// testMatrix is the full Figure 5 model×mode matrix at a small scale:
// every PARSEC model under native, FastTrack-full and Aikido-FastTrack.
func testMatrix(t testing.TB, scale float64) []Spec {
	t.Helper()
	var specs []Spec
	for _, b := range parsec.All() {
		b = b.WithScale(scale)
		for _, m := range []core.Mode{core.ModeNative, core.ModeFastTrackFull, core.ModeAikidoFastTrack} {
			specs = append(specs, Spec{
				Label:  b.Name + "/" + m.String(),
				Source: b.Spec,
				Config: core.DefaultConfig(m),
			})
		}
	}
	return specs
}

// resultsJSON serializes a report's results — every cell's label and full
// core.Result — for byte-level comparison.
func resultsJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	type cell struct {
		Label string
		Res   *core.Result
	}
	cells := make([]cell, len(rep.Cells))
	for i, m := range rep.Cells {
		cells[i] = cell{Label: m.Spec.Label, Res: m.Res}
	}
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepByteIdenticalAcrossWorkers is the engine's core contract: the
// reconciled report is byte-for-byte identical for any worker count,
// including the sequential workers=1 reference.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	specs := testMatrix(t, 0.1)
	ref, err := Sweep(specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Workers != 1 {
		t.Fatalf("reference pool size = %d, want 1", ref.Workers)
	}
	refJSON := resultsJSON(t, ref)

	for _, workers := range []int{2, 3, 8, len(specs) + 5} {
		rep, err := Sweep(specs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := resultsJSON(t, rep)
		if string(got) != string(refJSON) {
			t.Errorf("workers=%d: results differ from sequential reference", workers)
		}
	}
}

// TestSweepReconciliation: cells come back in spec order, each with its
// result.
func TestSweepReconciliation(t *testing.T) {
	specs := testMatrix(t, 0.1)
	rep, err := Sweep(specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(specs) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(specs))
	}
	for i, m := range rep.Cells {
		if m.Spec.Label != specs[i].Label {
			t.Errorf("cell %d label = %q, want %q (order not preserved)", i, m.Spec.Label, specs[i].Label)
		}
		if m.Res == nil {
			t.Fatalf("cell %d: nil result", i)
		}
	}
}

// TestSweepErrorDeterministic: when several cells fail, the reported error
// names the first failing cell in spec order, regardless of worker count.
func TestSweepErrorDeterministic(t *testing.T) {
	specs := testMatrix(t, 0.05)
	bad := core.Config{Mode: core.Mode(99)}
	specs[7].Config = bad
	specs[7].Label = "bad-seven"
	specs[3].Config = bad
	specs[3].Label = "bad-three"
	for _, workers := range []int{1, 2, 8} {
		_, err := Sweep(specs, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !strings.Contains(err.Error(), "cell 3") || !strings.Contains(err.Error(), "bad-three") {
			t.Errorf("workers=%d: error %q does not name first failing cell", workers, err)
		}
	}
}

// TestSweepEmpty: an empty matrix reconciles to an empty report.
func TestSweepEmpty(t *testing.T) {
	rep, err := Sweep(nil, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 0 || len(rep.Failed) != 0 {
		t.Errorf("non-empty report from empty sweep: %+v", rep)
	}
}

// TestSweepDefaultWorkers: Workers <= 0 resolves to a positive pool
// clamped by the cell count.
func TestSweepDefaultWorkers(t *testing.T) {
	specs := testMatrix(t, 0.05)[:2]
	rep, err := Sweep(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers < 1 || rep.Workers > 2 {
		t.Errorf("workers = %d, want 1..2 (NumCPU clamped to cells)", rep.Workers)
	}
}

// BenchmarkMatrix measures the wall-clock of the complete model×mode sweep
// through the concurrent runner at increasing pool sizes. The reported
// speedup-x metric is the sequential (workers=1) wall-clock divided by
// this pool size's: near-linear up to min(workers, cores) because cells
// are fully isolated (no shared shadow state, no locks on the measurement
// path). The simulated results are byte-identical at every pool size —
// TestSweepByteIdenticalAcrossWorkers enforces it.
func BenchmarkMatrix(b *testing.B) {
	specs := testMatrix(b, 0.5)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	// The workers=1 sub-benchmark runs first and its own timing is the
	// sequential reference for the later pool sizes' speedup-x metric
	// (reported only when the sequential leg ran, i.e. not under a
	// -bench filter that skips it).
	var seqNsOp float64
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(specs, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				seqNsOp = nsOp
			}
			if seqNsOp > 0 {
				b.ReportMetric(seqNsOp/nsOp, "speedup-x")
			}
			b.ReportMetric(float64(len(specs)), "cells")
		})
	}
}
