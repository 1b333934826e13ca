package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/atomicity"
	"repro/internal/commgraph"
	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/lockset"
	"repro/internal/runner"
	"repro/internal/spbags"
	"repro/internal/workload"
)

// mux4 is the analysis set the detectors and muxbench experiments
// multiplex onto one Aikido pass.
var mux4 = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// --- Extension: detector comparison (beyond the paper) ---------------------

// DetectorRow compares one hosted analysis configuration on the racy
// canneal model.
type DetectorRow struct {
	Variant string
	// Slow is the slowdown vs native. Rows extracted from the multiplexed
	// run share the cost of that single pass.
	Slow float64
	// Findings is the number of distinct races/warnings/violations.
	Findings int
	// Analyzed is how many access events the analysis processed.
	Analyzed uint64
	// FoundRNGRace reports whether the §5.3 RNG race was caught.
	FoundRNGRace bool
	// Multiplexed marks rows that came out of the single multiplexed
	// Aikido pass (one execution hosting every registry analysis at
	// once), rather than a dedicated run.
	Multiplexed bool
}

// detectorCells run the canneal model (with its §5.3 RNG race) under the
// hosted analyses. The Aikido-hosted detectors — FastTrack, LockSet, the
// atomicity checker, the communication-graph profiler — all ride ONE
// multiplexed execution instead of one full run each: the cells are
// native, full FastTrack and a single mux cell, and the per-analysis rows
// are unpacked from the mux run's findings map. It quantifies the paper's
// positioning: Aikido finds the races full FastTrack finds, missing only
// the first-access window, at a fraction of its cost; LockSet trades
// precision differently — and the framework amortizes one DBI+sharing
// pass over all of them.
func detectorCells(o Options) []runner.Spec {
	b := o.apply(bench("canneal"))
	return []runner.Spec{
		cell(b, "native", core.DefaultConfig(core.ModeNative)),
		cell(b, "fasttrack-full", core.DefaultConfig(core.ModeFastTrackFull)),
		cell(b, "aikido-mux", core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(mux4...)),
	}
}

// detectorRows reads detectorCells' results: full FastTrack's row, then
// one row per analysis of the mux pass.
func detectorRows(res []*core.Result) []DetectorRow {
	native, full, mux := res[0], res[1], res[2]
	rows := []DetectorRow{
		detectorRow("fasttrack-full", full, full.AnalysisFindings("fasttrack"), native, false),
	}
	for _, name := range mux4 {
		rows = append(rows, detectorRow("aikido:"+name, mux, mux.AnalysisFindings(name), native, true))
	}
	return rows
}

// detectorRow distills one analysis's findings into a comparison row.
func detectorRow(label string, res *core.Result, f analysis.Findings, native *core.Result, muxed bool) DetectorRow {
	row := DetectorRow{Variant: label, Slow: res.Slowdown(native), Multiplexed: muxed}
	if f == nil {
		return row
	}
	row.Findings = f.Len()
	// Unpack the typed findings for the analyzed-event count and the
	// §5.3 RNG-race check.
	switch tf := f.(type) {
	case *fasttrack.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, r := range tf.Races {
			if rngRaceAddr(r.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *lockset.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, w := range tf.Warnings {
			if rngRaceAddr(w.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *atomicity.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, v := range tf.Violations {
			if rngRaceAddr(v.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *commgraph.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
	}
	return row
}

// rngRaceAddr reports whether addr lies on the canneal model's racy page
// (the second page of the data segment: shared region first, then the racy
// page — see workload.Build's layout).
func rngRaceAddr(addr uint64) bool {
	// Layout: shared region occupies Locks pages from DataBase; the racy
	// page follows it. canneal has 4 locks.
	const racyBase = 0x1000_0000 + 4*4096
	return addr >= racyBase && addr < racyBase+4096
}

func printDetectors(w io.Writer, _ Options, res []*core.Result) {
	fmt.Fprintln(w, "Extension: hosted analyses on canneal (racy RNG state, §5.3)")
	fmt.Fprintln(w, "(\"mux\" rows share ONE multiplexed Aikido pass; its slowdown is the")
	fmt.Fprintln(w, "whole pass's — N analyses amortize a single DBI+sharing execution)")
	fmt.Fprintf(w, "%-22s %6s %10s %10s %12s %10s\n", "detector", "pass", "slowdown", "findings", "analyzed", "RNG race")
	for _, r := range detectorRows(res) {
		found := "missed"
		if r.FoundRNGRace {
			found = "caught"
		}
		pass := "own"
		if r.Multiplexed {
			pass = "mux"
		}
		fmt.Fprintf(w, "%-22s %6s %9.2fx %10d %12d %10s\n", r.Variant, pass, r.Slow, r.Findings, r.Analyzed, found)
	}
}

// --- Extension: Nondeterminator (SP-bags) vs FastTrack ----------------------

// nondetCase is one fork-join program of the nondet extension.
type nondetCase struct {
	label string
	spec  workload.ForkJoinSpec
	note  string
}

// nondetCases contrast the two detector families the paper's §1 and §7.3
// discuss: SP-bags is schedule independent (no false negatives for
// fork-join programs) and flags lock-ordered nondeterminism; FastTrack
// reports data races for the observed schedule only.
func nondetCases(o Options) []nondetCase {
	elems := int(64 * o.Scale)
	if elems < 16 {
		elems = 16
	}
	return []nondetCase{
		{"race-free", workload.ForkJoinSpec{Name: "fj-clean", Elems: elems, LeafSize: 8},
			"disjoint leaves: both agree"},
		{"racy-counter", workload.ForkJoinSpec{Name: "fj-racy", Elems: elems, LeafSize: 8, RacyCounter: true},
			"unsynchronized counter: both agree"},
		{"locked-counter", workload.ForkJoinSpec{Name: "fj-locked", Elems: elems, LeafSize: 8, LockCounter: true},
			"determinacy race but no data race: only SP-bags flags it"},
	}
}

// nondetCells run each program under SP-bags, then under FastTrack, both
// fully instrumented.
func nondetCells(o Options) []runner.Spec {
	var specs []runner.Spec
	for _, c := range nondetCases(o) {
		specs = append(specs,
			runner.Spec{Label: c.label + "/spbags", Source: c.spec,
				Config: core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(spbags.Kind)},
			runner.Spec{Label: c.label + "/fasttrack", Source: c.spec,
				Config: core.DefaultConfig(core.ModeFastTrackFull)})
	}
	return specs
}

func printNondet(w io.Writer, o Options, res []*core.Result) {
	fmt.Fprintln(w, "Extension: Nondeterminator-style SP-bags vs FastTrack on fork-join programs (§1, §7.3)")
	fmt.Fprintf(w, "%-16s %10s %12s   %s\n", "program", "SP-bags", "FastTrack", "note")
	for i, c := range nondetCases(o) {
		sp, ft := res[2*i], res[2*i+1]
		fmt.Fprintf(w, "%-16s %10d %12d   %s\n", c.label,
			sp.AnalysisFindings(spbags.Kind).Len(), len(fasttrack.RacesIn(ft.Findings)), c.note)
	}
}
