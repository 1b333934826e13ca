package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestMuxAmortization pins the registry refactor's headline property on
// every model: one multiplexed pass is cheaper than N sequential
// single-analysis passes, and it executes the guest exactly once instead
// of N times.
func TestMuxAmortization(t *testing.T) {
	rows, err := MuxAmortization(Options{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	n := uint64(len(muxAmortizationSet))
	for _, r := range rows {
		if r.CycleSpeedup <= 1 {
			t.Errorf("%s: multiplexing did not amortize (speedup %.2fx)", r.Name, r.CycleSpeedup)
		}
		// The guest is deterministic, so N sequential passes retire
		// exactly N times the instructions of the one multiplexed pass.
		if r.SequentialExecutions != n*r.MuxExecutions {
			t.Errorf("%s: executions %d, want exactly %d× the mux's %d",
				r.Name, r.SequentialExecutions, n, r.MuxExecutions)
		}
	}
	var buf bytes.Buffer
	WriteMuxAmortization(&buf, rows)
	if !strings.Contains(buf.String(), "geomean cycle speedup") {
		t.Error("rendering incomplete")
	}
}

// TestBenchJSONAnalysesOverride: the -analysis plumbing must keep the
// default single-analysis report byte-identical when the selection names
// the default explicitly (the CI mux-equivalence leg in miniature).
func TestBenchJSONAnalysesOverride(t *testing.T) {
	base := Options{Scale: 0.1, Workers: 2}
	def, err := BenchJSON(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"fasttrack"}, {"ft"}} {
		o := base
		o.Analyses = names
		got, err := BenchJSON(o)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := WriteBenchJSON(&a, def); err != nil {
			t.Fatal(err)
		}
		if err := WriteBenchJSON(&b, got); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("-analysis %v report differs from the default FastTrack report", names)
		}
	}
}
