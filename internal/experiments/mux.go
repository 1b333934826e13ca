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
	Name     string   `json:"name"`
	Analyses []string `json:"analyses"`
	// Sequential sums the N single-analysis runs; Mux is the one
	// multiplexed run. Executions counts retired guest instructions —
	// the DBI+sharing work the mux amortizes (expect ~N× fewer).
	SequentialCycles     uint64 `json:"sequential_cycles"`
	MuxCycles            uint64 `json:"mux_cycles"`
	SequentialExecutions uint64 `json:"sequential_instructions"`
	MuxExecutions        uint64 `json:"mux_instructions"`
	// CycleSpeedup is SequentialCycles / MuxCycles (>1 = the mux wins).
	CycleSpeedup float64 `json:"cycle_speedup_x"`
}

// muxAmortizationSet is the analysis set the mux amortization experiment
// hosts; it matches the detectors extension.
var muxAmortizationSet = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// MuxAmortization measures, per benchmark model, the cost of running N
// hosted analyses as N sequential single-analysis Aikido passes versus
// one multiplexed pass. The mux executes the guest (and pays DBI,
// sharing detection, page protection and mirror redirection) once instead
// of N times; only the per-analysis metadata work remains N-fold. This is
// the registry refactor's headline number; TestDetectorGolden pins every
// run behind it at scale 1.
func MuxAmortization(o Options) ([]MuxRow, error) {
	o = o.normalize()
	benches := parsec.All()
	stride := len(muxAmortizationSet) + 1 // N singles + 1 mux
	var specs []runner.Spec
	for _, b := range benches {
		bb := o.apply(b)
		for _, name := range muxAmortizationSet {
			specs = append(specs, cell(bb, name,
				core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(name)))
		}
		specs = append(specs, cell(bb, "mux",
			core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(muxAmortizationSet...)))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []MuxRow
	for i, b := range benches {
		row := MuxRow{Name: b.Name, Analyses: muxAmortizationSet}
		for j := range muxAmortizationSet {
			m := cells[stride*i+j]
			row.SequentialCycles += m.Res.Cycles
			row.SequentialExecutions += m.Res.Engine.Instructions
		}
		mux := cells[stride*i+len(muxAmortizationSet)]
		row.MuxCycles = mux.Res.Cycles
		row.MuxExecutions = mux.Res.Engine.Instructions
		row.CycleSpeedup = stats.Ratio(row.SequentialCycles, row.MuxCycles)
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteMuxAmortization renders the amortization table.
func WriteMuxAmortization(w io.Writer, rows []MuxRow) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0].Analyses)
	}
	fmt.Fprintf(w, "Mux amortization: %d analyses — N sequential Aikido passes vs ONE multiplexed pass\n", n)
	fmt.Fprintf(w, "%-15s %16s %16s %9s %14s %14s\n",
		"benchmark", "seq cycles", "mux cycles", "speedup", "seq instrs", "mux instrs")
	var speedups []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %14d %14d\n",
			r.Name, r.SequentialCycles, r.MuxCycles, r.CycleSpeedup,
			r.SequentialExecutions, r.MuxExecutions)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (guest executed once instead of %d times)\n",
		stats.Geomean(speedups), n)
}
