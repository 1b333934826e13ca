package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// MuxRow is one workload's amortization measurement: N single-analysis
// Aikido passes versus ONE multiplexed pass hosting the same N analyses.
type MuxRow struct {
	Name string
	// Sequential sums the N single-analysis runs; Mux is the one
	// multiplexed run. Executions counts retired guest instructions —
	// the DBI+sharing work the mux amortizes (expect ~N× fewer).
	SequentialCycles     uint64
	MuxCycles            uint64
	SequentialExecutions uint64
	MuxExecutions        uint64
	// CycleSpeedup is SequentialCycles / MuxCycles (>1 = the mux wins).
	CycleSpeedup float64
}

// muxCells measure, per benchmark model, the cost of running the mux4
// analyses as N sequential single-analysis Aikido passes versus one
// multiplexed pass. The mux executes the guest (and pays DBI, sharing
// detection, page protection and mirror redirection) once instead of N
// times; only the per-analysis metadata work remains N-fold. This is the
// registry refactor's headline number; TestDetectorGolden pins every run
// behind it at scale 1.
func muxCells(o Options) []runner.Spec {
	var specs []runner.Spec
	for _, b := range parsec.All() {
		b = o.apply(b)
		for _, name := range mux4 {
			specs = append(specs, cell(b, name,
				core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(name)))
		}
		specs = append(specs, cell(b, "mux",
			core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(mux4...)))
	}
	return specs
}

// muxRows reads muxCells' results: per model, N single passes, then the
// mux pass.
func muxRows(res []*core.Result) []MuxRow {
	var rows []MuxRow
	for _, b := range parsec.All() {
		row := MuxRow{Name: b.Name}
		for _, r := range res[:len(mux4)] {
			row.SequentialCycles += r.Cycles
			row.SequentialExecutions += r.Engine.Instructions
		}
		mux := res[len(mux4)]
		res = res[len(mux4)+1:]
		row.MuxCycles = mux.Cycles
		row.MuxExecutions = mux.Engine.Instructions
		row.CycleSpeedup = stats.Ratio(row.SequentialCycles, row.MuxCycles)
		rows = append(rows, row)
	}
	return rows
}

func printMux(w io.Writer, _ Options, res []*core.Result) {
	n := len(mux4)
	fmt.Fprintf(w, "Mux amortization: %d analyses — N sequential Aikido passes vs ONE multiplexed pass\n", n)
	fmt.Fprintf(w, "%-15s %16s %16s %9s %14s %14s\n",
		"benchmark", "seq cycles", "mux cycles", "speedup", "seq instrs", "mux instrs")
	var speedups []float64
	for _, r := range muxRows(res) {
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %14d %14d\n",
			r.Name, r.SequentialCycles, r.MuxCycles, r.CycleSpeedup,
			r.SequentialExecutions, r.MuxExecutions)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (guest executed once instead of %d times)\n",
		stats.Geomean(speedups), n)
}
