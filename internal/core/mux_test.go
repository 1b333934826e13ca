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

// TestMaxFindingsIsPerRun pins the uniform per-run cap semantics:
// Config.MaxFindings budgets the WHOLE run, divided across the selected
// analyses in configuration order. It used to forward the full cap to
// every mux member, so "-analysis a,b" with cap N silently stored up to
// members×N findings (and before the registry, the cap was FastTrack-only
// — a silent no-op for LockSet).
func TestMaxFindingsIsPerRun(t *testing.T) {
	// A program with many distinct unlocked shared variables, so both
	// detectors would exceed a cap of 1.
	b := isa.NewBuilder("manyraces")
	arr := b.Global(4096, 4096)
	spawn := func(label string) {
		b.MovImm(isa.R5, 0)
		b.ThreadCreate(label, isa.R5)
		b.Mov(isa.R9, isa.R0)
	}
	body := func(b *isa.Builder) {
		for i := int64(0); i < 6; i++ {
			b.LoadAbs(isa.R3, arr+uint64(i*8))
			b.AddImm(isa.R3, isa.R3, 1)
			b.StoreAbs(arr+uint64(i*8), isa.R3)
		}
	}
	spawn("w")
	b.LoopN(isa.R2, 40, body)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.LoopN(isa.R2, 40, body)
	b.Halt()
	prog := b.MustFinish()

	// Both analyses find many distinct issues, so every stored finding
	// below is cap-limited, not supply-limited.
	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = []string{"fasttrack", "lockset"}
	cfg.Quantum = 50

	// An even budget splits exactly: 1 finding per member, 2 in total.
	cfg.MaxFindings = 2
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cfg.Analyses {
		f := res.AnalysisFindings(name)
		if f == nil {
			t.Fatalf("%s did not run", name)
		}
		if f.Len() != 1 {
			t.Errorf("%s stored %d findings, want its share of the run budget (1)", name, f.Len())
		}
	}
	if got := res.TotalFindings(); got != 2 {
		t.Errorf("run stored %d findings under cap 2, want exactly 2", got)
	}

	// The regression shape: a budget below the member count must NOT
	// inflate to one-per-member. Earlier members take the remainder;
	// later ones store nothing (their findings are still counted).
	cfg.MaxFindings = 1
	res, err = Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalFindings(); got != 1 {
		t.Errorf("run stored %d findings under cap 1, want exactly 1 (the pre-fix behaviour stored members×cap)", got)
	}
	if got := res.AnalysisFindings("fasttrack").Len(); got != 1 {
		t.Errorf("fasttrack (first member) stored %d findings, want the whole budget (1)", got)
	}
	if got := res.AnalysisFindings("lockset").Len(); got != 0 {
		t.Errorf("lockset (zero allotment) stored %d findings, want 0", got)
	}
	if lsOf(res).Reads == 0 {
		t.Error("zero allotment stopped LockSet from analyzing (it must count, not store)")
	}

	// A single-analysis run keeps the whole budget — the cap behaves
	// exactly as before the division for the common configuration.
	cfg.Analyses = []string{"lockset"}
	cfg.MaxFindings = 1
	res, err = Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AnalysisFindings("lockset").Len(); got != 1 {
		t.Errorf("single-analysis run stored %d findings under cap 1, want 1", got)
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
