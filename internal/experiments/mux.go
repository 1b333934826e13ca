package experiments

import (
	"encoding/json"
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
	SequentialWallNS     int64  `json:"sequential_wall_ns"`
	MuxWallNS            int64  `json:"mux_wall_ns"`
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
// the registry refactor's headline number and the BENCH_3.json snapshot.
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
			row.SequentialWallNS += m.Wall.Nanoseconds()
		}
		mux := cells[stride*i+len(muxAmortizationSet)]
		row.MuxCycles = mux.Res.Cycles
		row.MuxExecutions = mux.Res.Engine.Instructions
		row.MuxWallNS = mux.Wall.Nanoseconds()
		if o.Deterministic {
			row.SequentialWallNS, row.MuxWallNS = 0, 0
		}
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

// MuxReport is the BENCH_3.json document: the registry refactor's
// amortization trajectory snapshot.
type MuxReport struct {
	Schema  string   `json:"schema"` // "aikido-mux-bench/v1"
	Scale   float64  `json:"scale"`
	Geomean float64  `json:"geomean_cycle_speedup_x"`
	Rows    []MuxRow `json:"rows"`
}

// MuxJSON runs the amortization experiment and packages it as a
// machine-readable report.
func MuxJSON(o Options) (*MuxReport, error) {
	rows, err := MuxAmortization(o)
	if err != nil {
		return nil, err
	}
	rep := &MuxReport{Schema: "aikido-mux-bench/v1", Scale: o.normalize().Scale, Rows: rows}
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WriteMuxJSON renders the report as indented JSON.
func WriteMuxJSON(w io.Writer, rep *MuxReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
