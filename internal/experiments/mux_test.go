package experiments

import "testing"

// TestMuxAmortization pins the registry refactor's headline property on
// every model: one multiplexed pass is cheaper than N sequential
// single-analysis passes, and it executes the guest exactly once instead
// of N times.
func TestMuxAmortization(t *testing.T) {
	rows := muxRows(runNamed(t, "muxbench", Options{Scale: 0.25}, "geomean cycle speedup"))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	n := uint64(len(mux4))
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
}

// TestBenchJSONAnalysesOverride: the -analysis plumbing must keep the
// default single-analysis records byte-identical when the selection names
// the default explicitly, by name or alias (cmd/aikido-bench's
// TestEquivalenceLegs in miniature).
func TestBenchJSONAnalysesOverride(t *testing.T) {
	base := Options{Scale: 0.1, Workers: 2}
	def := jsonOf(t, "fig5", base)
	for _, names := range [][]string{{"fasttrack"}, {"ft"}} {
		o := base
		o.Analyses = names
		if jsonOf(t, "fig5", o) != def {
			t.Errorf("-analysis %v records differ from the default FastTrack records", names)
		}
	}
}
