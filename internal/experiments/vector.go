package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// VectorRow is one workload's batch-vectorization measurement: the same
// analysis-heavy cell (full instrumentation hosting the four-way analysis
// mux) run with inline dispatch and with vectorized dispatch, both under
// the transition-cost model (stats.DispatchCosts). Inline dispatch pays
// the per-access clean call into every analysis; vectorized dispatch
// banks accesses in per-thread rings, cuts each drained batch into
// contiguous same-page groups and lets the detectors' batch kernels
// retire same-state runs against one hoisted comparison.
type VectorRow struct {
	Name     string   `json:"name"`
	Analyses []string `json:"analyses"`
	// ScalarCycles is the inline baseline: AnalysisDispatch plus
	// AnalysisFast/Slow + contention per access per analysis.
	// VectorCycles pays one drain entry per analysis per drain, a group
	// open per page group, and retires coalesced records at
	// BatchCoalescedRecord against hoisted state.
	ScalarCycles uint64 `json:"scalar_cycles"`
	VectorCycles uint64 `json:"vector_cycles"`
	// CycleSpeedup is ScalarCycles / VectorCycles (>1 = vectorized wins).
	CycleSpeedup float64 `json:"cycle_speedup_x"`
	// Drains/Records/Groups describe the vectorized run's pipeline;
	// RecordsPerGroup is the page locality the hoisting amortizes over.
	Drains          uint64  `json:"drains"`
	Records         uint64  `json:"records"`
	Groups          uint64  `json:"groups"`
	RecordsPerGroup float64 `json:"records_per_group"`
	// Coalesced/Fallbacks sum what the kernels did across the four
	// analyses: records retired by a hoisted comparison vs punted to the
	// scalar hook; CoalescedFraction = Coalesced / (4 × Records).
	Coalesced         uint64  `json:"coalesced"`
	Fallbacks         uint64  `json:"fallbacks"`
	CoalescedFraction float64 `json:"coalesced_fraction"`
	// FindingsIdentical reports whether every analysis rendered the same
	// findings and work counters in both runs — vectorization must change
	// how fast records retire, never what they observe.
	FindingsIdentical bool `json:"findings_identical"`
	// Wall-clock per cell (zeroed by -deterministic).
	ScalarWallNS int64 `json:"scalar_wall_ns"`
	VectorWallNS int64 `json:"vector_wall_ns"`
}

// zipfSuite is the Zipf-skewed sharing matrix the dispatch amortization
// experiments append to the PARSEC models: the same false-sharing slot
// layout at two points on the skew dial. The uniform row (skew 0) spreads
// accesses evenly over the pages; the hot row (skew 1.2) concentrates
// roughly half of all accesses onto one page — a long-run stress for the
// vectorized kernels' group cutting.
func zipfSuite(o Options) []epochCase {
	z := func(name string, skew float64) workload.ZipfSpec {
		return workload.ZipfSpec{
			Name: name, Threads: 8, Iters: o.iters(300), Pages: 16,
			OpsPerIter: 8, AluOps: 4, Skew: skew,
		}
	}
	return []epochCase{
		{"zipf-uniform", z("zipf-uniform", 0)},
		{"zipf-hot", z("zipf-hot", 1.2)},
	}
}

// amortUnit is one row of a dispatch-amortization matrix: a named
// workload that can mint runner cells for any config — either a PARSEC
// benchmark model or a generated workload source.
type amortUnit struct {
	name string
	spec func(label string, cfg core.Config) runner.Spec
}

// amortUnits is the workload set of a dispatch-amortization experiment:
// every PARSEC model, then the generated suite, so each snapshot carries
// both the paper's models and the page-locality extremes the dispatch
// machinery is sensitive to.
func (o Options) amortUnits(suite []epochCase) []amortUnit {
	var units []amortUnit
	for _, b := range parsec.All() {
		bb := o.apply(b)
		units = append(units, amortUnit{name: b.Name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return cell(bb, label, cfg)
			}})
	}
	for _, c := range suite {
		units = append(units, amortUnit{name: c.name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return runner.Spec{Label: c.name + "/" + label, Source: c.src, Config: cfg}
			}})
	}
	return units
}

// VectorAmortization measures, per benchmark model, what vectorized
// dispatch saves over inline dispatch. Both cells run under
// stats.DispatchCosts — the model that prices the analysis transition
// economics explicitly; under the default model the two modes are
// byte-identical by construction (CI pins this), so the experiment turns
// the transition and vector terms on to measure the amortization. This is
// the vectorized pipeline's headline number and the BENCH_7.json
// snapshot.
func VectorAmortization(o Options) ([]VectorRow, error) {
	o = o.normalize()
	units := o.amortUnits(zipfSuite(o))
	inline := core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(muxAmortizationSet...)
	inline.Costs = stats.DispatchCosts()
	vector := inline
	vector.Dispatch = core.DispatchVectorized
	var specs []runner.Spec
	for _, u := range units {
		specs = append(specs,
			u.spec("inline", inline),
			u.spec("vectorized", vector))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []VectorRow
	for i, u := range units {
		in, vec := cells[2*i].Res, cells[2*i+1].Res
		row := VectorRow{
			Name:              u.name,
			Analyses:          muxAmortizationSet,
			ScalarCycles:      in.Cycles,
			VectorCycles:      vec.Cycles,
			CycleSpeedup:      stats.Ratio(in.Cycles, vec.Cycles),
			Drains:            vec.DeferredDrains,
			Records:           vec.DeferredRecords,
			Groups:            vec.DeferredGroups,
			Coalesced:         vec.VectorCoalesced,
			Fallbacks:         vec.VectorFallbacks,
			FindingsIdentical: findingsIdentical(in, vec),
			ScalarWallNS:      cells[2*i].Wall.Nanoseconds(),
			VectorWallNS:      cells[2*i+1].Wall.Nanoseconds(),
		}
		if row.Groups > 0 {
			row.RecordsPerGroup = float64(row.Records) / float64(row.Groups)
		}
		if row.Records > 0 {
			row.CoalescedFraction = float64(row.Coalesced) /
				(float64(len(muxAmortizationSet)) * float64(row.Records))
		}
		if o.Deterministic {
			row.ScalarWallNS, row.VectorWallNS = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteVectorAmortization renders the vectorization table.
func WriteVectorAmortization(w io.Writer, rows []VectorRow) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0].Analyses)
	}
	fmt.Fprintf(w, "Vectorized batch kernels: inline per-access dispatch vs run-length coalescing (%d analyses,\n", n)
	fmt.Fprintln(w, "transition-cost model; findings must match in every row)")
	fmt.Fprintf(w, "%-15s %16s %16s %9s %10s %11s %9s %9s\n",
		"benchmark", "inline cycles", "vector cycles", "speedup", "groups", "coalesced", "coal%", "findings")
	var speedups []float64
	for _, r := range rows {
		verdict := "match"
		if !r.FindingsIdentical {
			verdict = "DIVERGE"
		}
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %10d %11d %8.1f%% %9s\n",
			r.Name, r.ScalarCycles, r.VectorCycles, r.CycleSpeedup,
			r.Groups, r.Coalesced, 100*r.CoalescedFraction, verdict)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (one hoisted comparison retires a same-state run)\n",
		stats.Geomean(speedups))
}

// VectorReport is the BENCH_7.json document: the batch-vectorization
// snapshot over the inline baseline.
type VectorReport struct {
	Schema string  `json:"schema"` // "aikido-vector-bench/v1"
	Scale  float64 `json:"scale"`
	// Costs records the transition-cost model the rows ran under.
	Costs struct {
		AnalysisDispatch     uint64 `json:"analysis_dispatch"`
		BatchDrainBase       uint64 `json:"batch_drain_base"`
		BatchPerRecord       uint64 `json:"batch_per_record"`
		BatchGroupBase       uint64 `json:"batch_group_base"`
		BatchCoalescedRecord uint64 `json:"batch_coalesced_record"`
	} `json:"dispatch_costs"`
	Geomean           float64     `json:"geomean_cycle_speedup_x"`
	FindingsIdentical bool        `json:"findings_identical"`
	Rows              []VectorRow `json:"rows"`
}

// VectorJSON runs the vectorization experiment and packages it as a
// machine-readable report.
func VectorJSON(o Options) (*VectorReport, error) {
	rows, err := VectorAmortization(o)
	if err != nil {
		return nil, err
	}
	o = o.normalize()
	rep := &VectorReport{Schema: "aikido-vector-bench/v1", Scale: o.Scale, Rows: rows}
	costs := stats.DispatchCosts()
	rep.Costs.AnalysisDispatch = costs.AnalysisDispatch
	rep.Costs.BatchDrainBase = costs.BatchDrainBase
	rep.Costs.BatchPerRecord = costs.BatchPerRecord
	rep.Costs.BatchGroupBase = costs.BatchGroupBase
	rep.Costs.BatchCoalescedRecord = costs.BatchCoalescedRecord
	rep.FindingsIdentical = true
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
		rep.FindingsIdentical = rep.FindingsIdentical && r.FindingsIdentical
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WriteVectorJSON renders the report as indented JSON.
func WriteVectorJSON(w io.Writer, rep *VectorReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
