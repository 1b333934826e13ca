package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sharing"
	"repro/internal/stats"
	"repro/internal/workload"
)

// EpochRow is one workload's epoch re-privatization measurement: the same
// Aikido run with the terminal-Shared state machine (baseline) and with
// epoch demotion enabled.
type EpochRow struct {
	Name string `json:"name"`
	// BaselineCycles is the epoch-off Aikido run; EpochCycles the
	// epoch-on run; CycleSpeedup their ratio (>1 = demotion wins).
	BaselineCycles uint64  `json:"baseline_cycles"`
	EpochCycles    uint64  `json:"epoch_cycles"`
	CycleSpeedup   float64 `json:"cycle_speedup_x"`
	// Demotion behaviour of the epoch-on run.
	EpochTicks          uint64 `json:"epoch_ticks"`
	PagesDemotedPrivate uint64 `json:"pages_demoted_private"`
	PagesDemotedUnused  uint64 `json:"pages_demoted_unused"`
	PagesReshared       uint64 `json:"pages_reshared"`
	PCsUninstrumented   uint64 `json:"pcs_uninstrumented"`
	// Shared-page accesses actually instrumented in each run: the gap is
	// the work demotion returned to native speed.
	BaselineSharedAccesses uint64 `json:"baseline_shared_accesses"`
	EpochSharedAccesses    uint64 `json:"epoch_shared_accesses"`
	// FindingsIdentical reports whether every selected analysis rendered
	// the same findings in both runs (the correctness half of the claim:
	// re-protection guarantees the first post-demotion cross-thread
	// access still faults, so nothing is missed on these workloads).
	FindingsIdentical bool `json:"findings_identical"`
	// Races is the race count of the epoch-on run.
	Races int `json:"races"`
	// Wall-clock per cell (zeroed by -deterministic).
	BaselineWallNS int64 `json:"baseline_wall_ns"`
	EpochWallNS    int64 `json:"epoch_wall_ns"`
}

// epochCase is one suite entry: a workload source built by a generator.
type epochCase struct {
	name string
	src  workload.Source
}

// epochSuite is the phased/migratory/false-sharing workload matrix the
// epochs experiment sweeps. The false-sharing row is the control: its
// pages are never single-owner, demotion must not fire, and its speedup
// should sit at ~1.0x.
func epochSuite(o Options) []epochCase {
	phased := func(name string, stride, writePct, pagesPerPart int) workload.PhasedSpec {
		return workload.PhasedSpec{
			Name: name, Threads: 8, Phases: 6, PhaseIters: o.iters(400),
			PagesPerPart: pagesPerPart, OpsPerIter: 8, AluOps: 6,
			WritePct: writePct, MigrateStride: stride, WarmupOps: 1,
		}
	}
	return []epochCase{
		{"phased", phased("phased", 0, 0, 2)},
		{"phased-readheavy", phased("phased-readheavy", 0, 10, 2)},
		{"migratory", phased("migratory", 1, 0, 2)},
		{"migratory-wide", phased("migratory-wide", 3, 0, 4)},
		// All eight threads write both pages every epoch, so the pages
		// never demote.
		{"falseshare", workload.FalseSharingSpec{
			Name: "falseshare", Threads: 8, Iters: o.iters(1200), Pages: 2,
			OpsPerIter: 6, AluOps: 6, SlotStride: 64,
		}},
	}
}

// epochPolicy resolves the demotion policy the experiment (and the
// -epoch flags) use.
func (o Options) epochPolicy() sharing.EpochPolicy { return sharing.DefaultEpochPolicy() }

// Epochs measures epoch-based re-privatization on the phased/migratory
// workload suite: per workload, one Aikido cell with the terminal-Shared
// baseline and one with demotion enabled, sharded across the runner pool
// like every other experiment. Beyond the speedup it checks the
// correctness half: every selected analysis must render identical
// findings in both runs.
func Epochs(o Options) ([]EpochRow, error) {
	o = o.normalize()
	suite := epochSuite(o)
	base := core.DefaultConfig(core.ModeAikidoFastTrack)
	base.Analyses = o.Analyses
	epoch := base
	epoch.Epoch = o.epochPolicy()

	var specs []runner.Spec
	for _, c := range suite {
		specs = append(specs,
			runner.Spec{Label: c.name + "/baseline", Source: c.src, Config: base},
			runner.Spec{Label: c.name + "/epoch", Source: c.src, Config: epoch})
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []EpochRow
	for i, c := range suite {
		b, e := cells[2*i].Res, cells[2*i+1].Res
		row := EpochRow{
			Name:                   c.name,
			BaselineCycles:         b.Cycles,
			EpochCycles:            e.Cycles,
			CycleSpeedup:           stats.Ratio(b.Cycles, e.Cycles),
			EpochTicks:             e.EpochTicks,
			PagesDemotedPrivate:    e.SD.PagesDemotedPrivate,
			PagesDemotedUnused:     e.SD.PagesDemotedUnused,
			PagesReshared:          e.SD.PagesReshared,
			PCsUninstrumented:      e.SD.PCsUninstrumented,
			BaselineSharedAccesses: b.SD.SharedPageAccesses,
			EpochSharedAccesses:    e.SD.SharedPageAccesses,
			FindingsIdentical:      findingsIdentical(b, e),
			Races:                  len(races(e)),
			BaselineWallNS:         cells[2*i].Wall.Nanoseconds(),
			EpochWallNS:            cells[2*i+1].Wall.Nanoseconds(),
		}
		if o.Deterministic {
			row.BaselineWallNS, row.EpochWallNS = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// findingsIdentical compares the rendered findings of every analysis in
// both results (the uniform Strings surface — what the detectors report,
// not how many accesses they processed getting there).
func findingsIdentical(a, b *core.Result) bool {
	if !reflect.DeepEqual(a.AnalysisNames(), b.AnalysisNames()) {
		return false
	}
	for _, name := range a.AnalysisNames() {
		if !reflect.DeepEqual(a.Findings[name].Strings(), b.Findings[name].Strings()) {
			return false
		}
	}
	return true
}

// WriteEpochs renders the epochs table.
func WriteEpochs(w io.Writer, rows []EpochRow) {
	fmt.Fprintln(w, "Epoch re-privatization: terminal-Shared baseline vs epoch demotion")
	fmt.Fprintln(w, "(speedup >1 = demotion wins; findings must match in every row)")
	fmt.Fprintf(w, "%-18s %14s %14s %9s %8s %9s %9s %9s\n",
		"workload", "base cycles", "epoch cycles", "speedup", "demoted", "reshared", "uninstr", "findings")
	var speedups []float64
	for _, r := range rows {
		verdict := "match"
		if !r.FindingsIdentical {
			verdict = "DIVERGE"
		}
		fmt.Fprintf(w, "%-18s %14d %14d %8.2fx %8d %9d %9d %9s\n",
			r.Name, r.BaselineCycles, r.EpochCycles, r.CycleSpeedup,
			r.PagesDemotedPrivate+r.PagesDemotedUnused, r.PagesReshared,
			r.PCsUninstrumented, verdict)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx\n", stats.Geomean(speedups))
}

// EpochReport is the BENCH_4.json document: the epoch re-privatization
// trajectory snapshot.
type EpochReport struct {
	Schema string  `json:"schema"` // "aikido-epoch-bench/v1"
	Scale  float64 `json:"scale"`
	// Policy records the demotion policy the rows ran under.
	Policy struct {
		IntervalCycles uint64 `json:"interval_cycles"`
		DemoteAfter    uint8  `json:"demote_after"`
		QuietAfter     uint8  `json:"quiet_after"`
		MinOwnerHits   uint32 `json:"min_owner_hits"`
	} `json:"policy"`
	Geomean           float64    `json:"geomean_cycle_speedup_x"`
	FindingsIdentical bool       `json:"findings_identical"`
	Rows              []EpochRow `json:"rows"`
}

// EpochJSON runs the epochs experiment and packages it as a
// machine-readable report.
func EpochJSON(o Options) (*EpochReport, error) {
	rows, err := Epochs(o)
	if err != nil {
		return nil, err
	}
	o = o.normalize()
	rep := &EpochReport{Schema: "aikido-epoch-bench/v1", Scale: o.Scale, Rows: rows}
	p := o.epochPolicy()
	rep.Policy.IntervalCycles = p.Interval
	rep.Policy.DemoteAfter = p.DemoteAfter
	rep.Policy.QuietAfter = p.QuietAfter
	rep.Policy.MinOwnerHits = p.MinOwnerHits
	rep.FindingsIdentical = true
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
		rep.FindingsIdentical = rep.FindingsIdentical && r.FindingsIdentical
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WriteEpochJSON renders the report as indented JSON.
func WriteEpochJSON(w io.Writer, rep *EpochReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
