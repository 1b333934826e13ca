package experiments

import (
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
	Name string
	// BaselineCycles is the epoch-off Aikido run; EpochCycles the
	// epoch-on run; CycleSpeedup their ratio (>1 = demotion wins).
	BaselineCycles uint64
	EpochCycles    uint64
	CycleSpeedup   float64
	// Demotion behaviour of the epoch-on run.
	PagesDemotedPrivate uint64
	PagesDemotedUnused  uint64
	PagesReshared       uint64
	PCsUninstrumented   uint64
	// Shared-page accesses actually instrumented in each run: the gap is
	// the work demotion returned to native speed.
	BaselineSharedAccesses uint64
	EpochSharedAccesses    uint64
	// FindingsIdentical reports whether every selected analysis rendered
	// the same findings in both runs (the correctness half of the claim:
	// re-protection guarantees the first post-demotion cross-thread
	// access still faults, so nothing is missed on these workloads).
	FindingsIdentical bool
}

// epochCase is one suite entry: a workload source built by a generator.
type epochCase struct {
	name string
	src  workload.Source
}

// epochSuite is the phased/migratory/false-sharing workload matrix the
// epochs experiment sweeps. The false-sharing row is the control: its
// pages are never single-owner, demotion must not fire, and its speedup
// should sit at ~1.0x. core's TestDetectorGolden repeats these specs at
// scale 1, so a change here regenerates the golden.
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

// epochCells measure epoch-based re-privatization on the suite: per
// workload, one Aikido cell with the terminal-Shared baseline and one with
// demotion enabled. Beyond the speedup the experiment checks the
// correctness half: every selected analysis must render identical
// findings in both runs. TestDetectorGolden pins both runs of every
// workload at scale 1.
func epochCells(o Options) []runner.Spec {
	epoch := core.DefaultConfig(core.ModeAikidoFastTrack)
	if o.Analyses != nil {
		epoch.Analyses = o.Analyses
	}
	base := epoch
	base.Aikido.Epoch = sharing.EpochPolicy{}

	var specs []runner.Spec
	for _, c := range epochSuite(o) {
		specs = append(specs,
			runner.Spec{Label: c.name + "/baseline", Source: c.src, Config: base},
			runner.Spec{Label: c.name + "/epoch", Source: c.src, Config: epoch})
	}
	return specs
}

// epochRows reads epochCells' results, a baseline and an epoch-on run
// per workload.
func epochRows(o Options, res []*core.Result) []EpochRow {
	var rows []EpochRow
	for i, c := range epochSuite(o) {
		b, e := res[2*i], res[2*i+1]
		rows = append(rows, EpochRow{
			Name:                   c.name,
			BaselineCycles:         b.Cycles,
			EpochCycles:            e.Cycles,
			CycleSpeedup:           stats.Ratio(b.Cycles, e.Cycles),
			PagesDemotedPrivate:    e.SD.PagesDemotedPrivate,
			PagesDemotedUnused:     e.SD.PagesDemotedUnused,
			PagesReshared:          e.SD.PagesReshared,
			PCsUninstrumented:      e.SD.PCsUninstrumented,
			BaselineSharedAccesses: b.SD.SharedPageAccesses,
			EpochSharedAccesses:    e.SD.SharedPageAccesses,
			FindingsIdentical:      findingsIdentical(b, e),
		})
	}
	return rows
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

func printEpochs(w io.Writer, o Options, res []*core.Result) {
	fmt.Fprintln(w, "Epoch re-privatization: terminal-Shared baseline vs epoch demotion")
	fmt.Fprintln(w, "(speedup >1 = demotion wins; findings must match in every row)")
	fmt.Fprintf(w, "%-18s %14s %14s %9s %8s %9s %9s %9s\n",
		"workload", "base cycles", "epoch cycles", "speedup", "demoted", "reshared", "uninstr", "findings")
	var speedups []float64
	for _, r := range epochRows(o, res) {
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
