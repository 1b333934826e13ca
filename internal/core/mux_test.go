package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/parsec"
	"repro/internal/workload"
)

// TestRegistryPopulation pins the full detector population: every in-tree
// analysis — including the three that predate the registry — is
// registered by importing core.
func TestRegistryPopulation(t *testing.T) {
	want := []string{"atomicity", "commgraph", "fasttrack", "lockset",
		"memcheck", "spbags", "taint"}
	if got := analysis.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("registry names = %v, want %v", got, want)
	}
	for alias, canon := range map[string]string{
		"ft": "fasttrack", "ls": "lockset", "atom": "atomicity",
		"cg": "commgraph",
	} {
		if got := analysis.Resolve(alias); got != canon {
			t.Errorf("Resolve(%q) = %q, want %q", alias, got, canon)
		}
	}
}

// muxSet is the analysis set the multiplexing equivalence tests exercise.
var muxSet = []string{"fasttrack", "lockset", "atomicity"}

// runNamed runs prog under mode with exactly the named analyses (empty =
// none: the instrumentation-only cost floor).
func runNamed(t *testing.T, prog *isa.Program, mode Mode, names []string) *Result {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.Analyses = names
	cfg.Quantum = 50
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("%v/%v: %v", mode, names, err)
	}
	return res
}

// TestMuxFindingsMatchSingleRuns is the multiplexing correctness
// contract: every analysis in a multiplexed {fasttrack,lockset,atomicity}
// run produces findings and counters byte-identical to its own
// single-analysis run, per workload, in both the full-instrumentation and
// Aikido configurations. The mux must be invisible to its members.
func TestMuxFindingsMatchSingleRuns(t *testing.T) {
	progs := map[string]*isa.Program{
		"racy":    sharedProgram(80, false),
		"locked":  sharedProgram(80, true),
		"private": privateProgram(80),
	}
	for pname, prog := range progs {
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			mux := runNamed(t, prog, mode, muxSet)
			if len(mux.Findings) != len(muxSet) {
				t.Fatalf("%s/%v: %d findings entries, want %d", pname, mode, len(mux.Findings), len(muxSet))
			}
			for _, name := range muxSet {
				single := runNamed(t, prog, mode, []string{name})
				mf, sf := mux.Findings[name], single.Findings[name]
				if mf == nil || sf == nil {
					t.Fatalf("%s/%v/%s: missing findings (mux=%v single=%v)", pname, mode, name, mf, sf)
				}
				if !reflect.DeepEqual(mf.Strings(), sf.Strings()) {
					t.Errorf("%s/%v/%s: findings diverge:\nmux:    %v\nsingle: %v",
						pname, mode, name, mf.Strings(), sf.Strings())
				}
				if mf.Summary() != sf.Summary() {
					t.Errorf("%s/%v/%s: counters diverge:\nmux:    %s\nsingle: %s",
						pname, mode, name, mf.Summary(), sf.Summary())
				}
			}
		}
	}
}

// TestMuxEquivalenceOnParsec runs the same contract over real workload
// models: per PARSEC benchmark and mode, each analysis's findings and
// counters from the multiplexed pass are identical to its single-analysis
// run, and the mux run's cycles decompose additively. (Small scale — the
// core-local programs above cover the corner cases cheaply.)
func TestMuxEquivalenceOnParsec(t *testing.T) {
	for _, name := range []string{"canneal", "vips", "streamcluster"} {
		bench, err := parsec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bench = bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			mux := runNamed(t, prog, mode, muxSet)
			floor := runNamed(t, prog, mode, []string{}).Cycles
			var sum uint64
			for _, an := range muxSet {
				single := runNamed(t, prog, mode, []string{an})
				mf, sf := mux.Findings[an], single.Findings[an]
				if !reflect.DeepEqual(mf.Strings(), sf.Strings()) || mf.Summary() != sf.Summary() {
					t.Errorf("%s/%v/%s: multiplexed findings diverge from single run", name, mode, an)
				}
				sum += single.Cycles - floor
			}
			if mux.Cycles-floor != sum {
				t.Errorf("%s/%v: mux cycles not additive: mux-floor=%d Σ(single-floor)=%d",
					name, mode, mux.Cycles-floor, sum)
			}
		}
	}
}

// TestMuxCycleAdditivity pins the cost model of multiplexed dispatch: the
// mux itself charges nothing, so a multiplexed run's cycles over the
// no-analysis floor must equal the SUM of each member's single-run cycles
// over the same floor. (Equivalently: one multiplexed pass saves exactly
// N-1 guest executions' worth of DBI+sharing work — the amortization the
// muxbench experiment reports and TestDetectorGolden's mux cells pin.)
func TestMuxCycleAdditivity(t *testing.T) {
	prog := sharedProgram(120, false)
	for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
		floor := runNamed(t, prog, mode, []string{}).Cycles
		mux := runNamed(t, prog, mode, muxSet).Cycles
		var sum uint64
		for _, name := range muxSet {
			single := runNamed(t, prog, mode, []string{name}).Cycles
			if single < floor {
				t.Fatalf("%v/%s: single run (%d) under the floor (%d)", mode, name, single, floor)
			}
			sum += single - floor
		}
		if mux-floor != sum {
			t.Errorf("%v: mux cycles not additive: mux-floor=%d, Σ(single-floor)=%d",
				mode, mux-floor, sum)
		}
	}
}

// TestMuxRunCheaperThanSequentialRuns is the amortization claim end to
// end: one multiplexed pass costs less than running the same analyses as
// separate passes, because the guest (and DBI+sharing) executes once.
func TestMuxRunCheaperThanSequentialRuns(t *testing.T) {
	prog := sharedProgram(120, false)
	mux := runNamed(t, prog, ModeAikidoFastTrack, muxSet).Cycles
	var sequential uint64
	for _, name := range muxSet {
		sequential += runNamed(t, prog, ModeAikidoFastTrack, []string{name}).Cycles
	}
	if mux >= sequential {
		t.Errorf("multiplexed run (%d cycles) not cheaper than %d sequential passes (%d cycles)",
			mux, len(muxSet), sequential)
	}
}

// TestEmptyAnalysesRunsNone: Config.Analyses is read literally. nil, an
// empty slice and WithAnalyses() all instrument but analyze nothing, in
// both analysis modes; only DefaultConfig selects FastTrack.
func TestEmptyAnalysesRunsNone(t *testing.T) {
	prog := sharedProgram(30, false)
	for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
		for _, cfg := range []Config{
			DefaultConfig(mode).WithAnalyses(),
			DefaultConfig(mode).WithAnalyses([]string{}...),
			{Mode: mode, Quantum: DefaultConfig(mode).Quantum},
		} {
			if res := runCfg(t, prog, cfg); len(res.Findings) != 0 {
				t.Errorf("%v %#v: no selection produced findings: %v", mode, cfg.Analyses, res.Findings)
			}
		}
		if def := runCfg(t, prog, DefaultConfig(mode)); def.AnalysisFindings("fasttrack") == nil {
			t.Errorf("%v: DefaultConfig did not run FastTrack", mode)
		}
	}
}

// TestNewlyHostedDetectors: the three detectors that predate the registry
// (taint, memcheck, spbags) run multiplexed on one fully instrumented
// pass, and each reports. What they find on their scenario guests is
// pinned by the hosted cells of TestDetectorGolden.
func TestNewlyHostedDetectors(t *testing.T) {
	prog := sharedProgram(40, false)
	res := runNamed(t, prog, ModeFastTrackFull, []string{"memcheck", "spbags", "taint"})
	for _, name := range []string{"memcheck", "spbags", "taint"} {
		if res.AnalysisFindings(name) == nil {
			t.Errorf("%s missing from findings map", name)
		}
	}
	mc := res.AnalysisFindings("memcheck")
	if mc.Summary() == "" {
		t.Error("memcheck summary empty")
	}
	// The loader-initialized counter page loads as defined: no reports.
	if mc.Len() != 0 {
		t.Errorf("memcheck reported on a defined global: %v", mc.Strings())
	}
}
