package experiments

// The BENCH_9 experiment: Doppel-style split phases for hot pages
// (DispatchPhased). Epoch demotion (BENCH_4) leaves the falseshare and
// zipf-hot rows at exactly 1.00×: a page written by many threads every
// epoch never demotes, so it pays the per-access clean-call transition
// forever. Split phases attack that term directly: hot pages bank
// accesses at PhaseBankRecord (one ring store) instead of
// AnalysisDispatch × N analyses, and pay the reconciliation merge once
// per drain. This file prices the trade under stats.DispatchCosts and
// pins the correctness half — findings must be byte-identical in every
// row.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sharing"
	"repro/internal/stats"
)

// phaseSuite is the hot-page workload matrix the phase experiment
// appends to the PARSEC models: the false-sharing control that every
// earlier optimization left at 1.00× (the permanently-hot shape), plus
// the Zipf pair whose hot row concentrates roughly half of all accesses
// onto one permanently-hot page while its uniform row spreads them thin.
func phaseSuite(o Options) []epochCase {
	return append([]epochCase{falseShare(o)}, zipfSuite(o)...)
}

// PhaseRow is one workload's split-phase measurement: the same Aikido
// cell (the four-way mux under epoch re-privatization and the
// transition-cost model) run with inline dispatch and with phased
// dispatch.
type PhaseRow struct {
	Name     string   `json:"name"`
	Analyses []string `json:"analyses"`
	// InlineCycles pays the per-access clean call (AnalysisDispatch per
	// analysis) on every shared access; PhasedCycles banks split-page
	// accesses at PhaseBankRecord and reconciles per drain. Their ratio
	// is the modeled split-phase win.
	InlineCycles uint64  `json:"inline_cycles"`
	PhasedCycles uint64  `json:"phased_cycles"`
	CycleSpeedup float64 `json:"cycle_speedup_x"`
	// PagesSplit / PagesJoined count phase flips in the phased run;
	// Banked the records that went through per-thread delta rings and
	// Reconciles the merges that folded them back. All four are 0 on
	// workloads the classifier keeps joined — which is exactly the
	// byte-identity condition.
	PagesSplit  uint64 `json:"pages_split"`
	PagesJoined uint64 `json:"pages_joined"`
	Banked      uint64 `json:"banked_records"`
	Reconciles  uint64 `json:"reconciles"`
	// BankedFrac is the fraction of shared accesses that banked — how
	// much of the workload the classifier actually moved into the split
	// phase.
	BankedFrac float64 `json:"banked_frac"`
	// FindingsIdentical reports whether every analysis rendered the same
	// findings in both runs — phases change when shadow state is written,
	// never what it ends up recording.
	FindingsIdentical bool `json:"findings_identical"`
	// Wall-clock per cell (zeroed by -deterministic).
	InlineWallNS int64 `json:"inline_wall_ns"`
	PhasedWallNS int64 `json:"phased_wall_ns"`
}

// PhaseAmortization measures, per workload, what split phases save over
// inline dispatch on hot pages. Both cells run the full Aikido stack
// with epoch re-privatization and stats.DispatchCosts — under the
// default cost model phased dispatch is byte-identical to inline on
// non-hot workloads by construction (CI pins this), so the experiment
// turns the transition terms on to price the trade explicitly: inline
// pays AnalysisDispatch × analyses per shared access forever, phased
// pays PhaseBankRecord per banked access plus PhaseReconcileBase per
// analysis per merge. The PARSEC rows are the guard rail (the classifier
// must keep them joined: speedup 1.00×, zero split pages); falseshare
// and zipf-hot are the headline — the rows every earlier refinement left
// at exactly 1.00×. This is BENCH_9.json.
func PhaseAmortization(o Options) ([]PhaseRow, error) {
	o = o.normalize()
	units := o.amortUnits(phaseSuite(o))
	inlineCfg := core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(muxAmortizationSet...)
	inlineCfg.Costs = stats.DispatchCosts()
	inlineCfg.Epoch = sharing.DefaultEpochPolicy()
	phasedCfg := inlineCfg
	phasedCfg.Dispatch = core.DispatchPhased
	phasedCfg.Phase = sharing.DefaultPhasePolicy()

	var specs []runner.Spec
	for _, u := range units {
		specs = append(specs,
			u.spec("inline", inlineCfg),
			u.spec("phased", phasedCfg))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []PhaseRow
	for i, u := range units {
		in, ph := cells[2*i].Res, cells[2*i+1].Res
		row := PhaseRow{
			Name:              u.name,
			Analyses:          muxAmortizationSet,
			InlineCycles:      in.Cycles,
			PhasedCycles:      ph.Cycles,
			CycleSpeedup:      stats.Ratio(in.Cycles, ph.Cycles),
			PagesSplit:        ph.SD.PagesSplit,
			PagesJoined:       ph.SD.PagesJoined,
			Banked:            ph.PhaseBanked,
			Reconciles:        ph.PhaseReconciles,
			FindingsIdentical: findingsIdentical(in, ph),
			InlineWallNS:      cells[2*i].Wall.Nanoseconds(),
			PhasedWallNS:      cells[2*i+1].Wall.Nanoseconds(),
		}
		if sa := ph.SD.SharedPageAccesses; sa > 0 {
			row.BankedFrac = float64(row.Banked) / float64(sa)
		}
		if o.Deterministic {
			row.InlineWallNS, row.PhasedWallNS = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePhaseAmortization renders the split-phase table.
func WritePhaseAmortization(w io.Writer, rows []PhaseRow) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0].Analyses)
	}
	fmt.Fprintf(w, "Split phases: inline dispatch vs Doppel-style hot-page banking (%d analyses,\n", n)
	fmt.Fprintln(w, "Aikido mode, epoch + transition-cost model; findings must match in every row)")
	fmt.Fprintf(w, "%-15s %16s %16s %9s %7s %10s %8s %9s\n",
		"workload", "inline cycles", "phased cycles", "speedup", "split", "banked", "banked%", "findings")
	var speedups []float64
	for _, r := range rows {
		verdict := "match"
		if !r.FindingsIdentical {
			verdict = "DIVERGE"
		}
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %7d %10d %7.1f%% %9s\n",
			r.Name, r.InlineCycles, r.PhasedCycles, r.CycleSpeedup,
			r.PagesSplit, r.Banked, 100*r.BankedFrac, verdict)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (hot pages bank at PhaseBankRecord instead of the per-access clean call)\n",
		stats.Geomean(speedups))
}

// PhaseReport is the BENCH_9.json document: the split-phase snapshot
// over the inline Aikido baseline.
type PhaseReport struct {
	Schema string  `json:"schema"` // "aikido-phase-bench/v1"
	Scale  float64 `json:"scale"`
	// Costs records the transition-cost model the rows ran under: the
	// per-access clean call phased dispatch amortizes away on hot pages,
	// and the two phase terms it pays instead.
	Costs struct {
		AnalysisDispatch   uint64 `json:"analysis_dispatch"`
		BatchPerRecord     uint64 `json:"batch_per_record"`
		PhaseReconcileBase uint64 `json:"phase_reconcile_base"`
		PhaseBankRecord    uint64 `json:"phase_bank_record"`
	} `json:"dispatch_costs"`
	// Policy records the hot-page classifier thresholds the phased cells
	// ran under (sharing.DefaultPhasePolicy).
	Policy struct {
		SplitAfter     uint8  `json:"split_after"`
		JoinAfter      uint8  `json:"join_after"`
		MinHotHits     uint32 `json:"min_hot_hits"`
		MinOtherWrites uint32 `json:"min_other_writes"`
	} `json:"phase_policy"`
	Geomean           float64    `json:"geomean_cycle_speedup_x"`
	FindingsIdentical bool       `json:"findings_identical"`
	Rows              []PhaseRow `json:"rows"`
}

// PhaseJSON runs the split-phase experiment and packages it as a
// machine-readable report.
func PhaseJSON(o Options) (*PhaseReport, error) {
	rows, err := PhaseAmortization(o)
	if err != nil {
		return nil, err
	}
	o = o.normalize()
	rep := &PhaseReport{Schema: "aikido-phase-bench/v1", Scale: o.Scale, Rows: rows}
	costs := stats.DispatchCosts()
	rep.Costs.AnalysisDispatch = costs.AnalysisDispatch
	rep.Costs.BatchPerRecord = costs.BatchPerRecord
	rep.Costs.PhaseReconcileBase = costs.PhaseReconcileBase
	rep.Costs.PhaseBankRecord = costs.PhaseBankRecord
	pol := sharing.DefaultPhasePolicy()
	rep.Policy.SplitAfter = pol.SplitAfter
	rep.Policy.JoinAfter = pol.JoinAfter
	rep.Policy.MinHotHits = pol.MinHotHits
	rep.Policy.MinOtherWrites = pol.MinOtherWrites
	rep.FindingsIdentical = true
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
		rep.FindingsIdentical = rep.FindingsIdentical && r.FindingsIdentical
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WritePhaseJSON renders the report as indented JSON.
func WritePhaseJSON(w io.Writer, rep *PhaseReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
