package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/vm"
	"repro/internal/workload"
)

// stripEpochCounters zeroes the counters that only the epoch-enabled run
// can accumulate, so the remainder of the sharing counters can be
// compared exactly against a demotion-off baseline.
func stripEpochCounters(c sharing.Counters) sharing.Counters {
	c.EpochSweeps = 0
	c.PagesDemotedPrivate = 0
	c.PagesDemotedUnused = 0
	c.PagesReshared = 0
	c.PCsUninstrumented = 0
	return c
}

// TestEpochParsecByteIdentical pins that epoch demotion, on by default,
// never perturbs the steadily-sharing PARSEC models: at scales 0.25 and
// 0.1 (the size of the experiments package's BenchJSON tests) the
// default configuration behaves byte-identically to the terminal-Shared
// baseline — same cycles, same races, same engine and sharing counters —
// because demotion never fires on them (every shared page keeps being
// touched by several threads per epoch). The epoch machinery must still
// be demonstrably armed: sweeps occur.
func TestEpochParsecByteIdentical(t *testing.T) {
	terminal := DefaultConfig(ModeAikidoFastTrack)
	terminal.Aikido.Epoch = sharing.EpochPolicy{}
	for _, scale := range []float64{0.25, 0.1} {
		swept := false
		for _, bench := range parsec.All() {
			bench := bench.WithScale(scale)
			prog, err := workload.Build(bench.Spec)
			if err != nil {
				t.Fatalf("%s: build: %v", bench.Name, err)
			}
			base, err := Run(prog, terminal)
			if err != nil {
				t.Fatalf("%s: baseline: %v", bench.Name, err)
			}
			ep, err := Run(prog, DefaultConfig(ModeAikidoFastTrack))
			if err != nil {
				t.Fatalf("%s: epoch: %v", bench.Name, err)
			}
			label := fmt.Sprintf("%s scale=%v", bench.Name, scale)
			swept = swept || ep.SD.EpochSweeps > 0
			if d := ep.SD.PagesDemotedPrivate + ep.SD.PagesDemotedUnused; d != 0 {
				t.Errorf("%s: default policy demoted %d pages on a steady model", label, d)
			}
			if base.Cycles != ep.Cycles {
				t.Errorf("%s: cycles diverge: baseline %d, epoch %d", label, base.Cycles, ep.Cycles)
			}
			if !reflect.DeepEqual(racesOf(base), racesOf(ep)) {
				t.Errorf("%s: races diverge:\nbaseline: %v\nepoch:    %v", label, racesOf(base), racesOf(ep))
			}
			if base.Engine != ep.Engine {
				t.Errorf("%s: engine counters diverge:\nbaseline: %+v\nepoch:    %+v", label, base.Engine, ep.Engine)
			}
			if base.SD != stripEpochCounters(ep.SD) {
				t.Errorf("%s: sharing counters diverge:\nbaseline: %+v\nepoch:    %+v", label, base.SD, ep.SD)
			}
		}
		if !swept {
			t.Errorf("scale %v: no epoch ended on any model: the equivalence was vacuous", scale)
		}
	}
}

// TestEpochPhasedSpeedup pins the demotion win on the workloads the
// mechanism exists for: phased and migratory programs get meaningfully
// faster (everything is simulated cycles, so the thresholds are exact
// and machine-independent), while the false-sharing control — whose
// pages are never single-owner — must not change by a single cycle.
func TestEpochPhasedSpeedup(t *testing.T) {
	epochCfg := DefaultConfig(ModeAikidoFastTrack)
	terminal := epochCfg
	terminal.Aikido.Epoch = sharing.EpochPolicy{}

	phased := workload.PhasedSpec{
		Name: "phased", Threads: 8, Phases: 6, PhaseIters: 200,
		PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, WarmupOps: 1,
	}
	migratory := phased
	migratory.Name = "migratory"
	migratory.MigrateStride = 1

	for _, tc := range []struct {
		src        workload.Source
		minSpeedup float64
	}{
		{phased, 3.0},
		{migratory, 1.2},
	} {
		prog, err := tc.src.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.src.SourceName(), err)
		}
		base, err := Run(prog, terminal)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := Run(prog, epochCfg)
		if err != nil {
			t.Fatal(err)
		}
		speedup := float64(base.Cycles) / float64(ep.Cycles)
		if speedup < tc.minSpeedup {
			t.Errorf("%s: cycle speedup %.2fx, want >= %.1fx (baseline %d, epoch %d)",
				tc.src.SourceName(), speedup, tc.minSpeedup, base.Cycles, ep.Cycles)
		}
		if ep.SD.PagesDemotedPrivate == 0 {
			t.Errorf("%s: no pages demoted", tc.src.SourceName())
		}
		if len(racesOf(base)) != 0 || len(racesOf(ep)) != 0 {
			t.Errorf("%s: race-free workload reported races (%d/%d)",
				tc.src.SourceName(), len(racesOf(base)), len(racesOf(ep)))
		}
	}

	fs := workload.FalseSharingSpec{
		Name: "falseshare", Threads: 8, Iters: 300, Pages: 2,
		OpsPerIter: 6, AluOps: 6, SlotStride: 64,
	}
	prog, err := fs.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(prog, terminal)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Run(prog, epochCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != ep.Cycles {
		t.Errorf("falseshare control diverged: baseline %d, epoch %d", base.Cycles, ep.Cycles)
	}
	if d := ep.SD.PagesDemotedPrivate + ep.SD.PagesDemotedUnused; d != 0 {
		t.Errorf("falseshare control demoted %d pages", d)
	}
}

// TestEpochDisabledNeverTicks is the terminal-Shared half of the boundary
// contract: with the zero epoch policy no epoch ever ends — zero sweeps —
// on a workload that shares pages heavily enough that an armed deadline
// would certainly have passed.
func TestEpochDisabledNeverTicks(t *testing.T) {
	bench, err := parsec.ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	bench = bench.WithScale(0.25)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Aikido.Epoch = sharing.EpochPolicy{}
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SD.EpochSweeps != 0 {
		t.Errorf("disabled epochs swept %d times", res.SD.EpochSweeps)
	}
	// The same run with the default, armed deadline does sweep — the
	// zero above is a property of the configuration, not of the workload.
	armed, err := Run(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	if armed.SD.EpochSweeps == 0 {
		t.Error("armed control never swept: the disabled-epoch check is vacuous")
	}
}

// TestEpochFaultPathNeverTicks guards the deliberate asymmetry of the
// epoch deadline: only the instrumented PreAccess path checks the epoch
// boundary; the fault path never does (a sweep demoting the faulting page
// to the faulting thread mid-handling would make the delivered fault look
// spurious). A single-thread workload keeps every page Private — all
// sharing-detector activity is first-touch faults, no instruction is ever
// instrumented — so even a 1-cycle interval must never tick.
func TestEpochFaultPathNeverTicks(t *testing.T) {
	bench, err := parsec.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	bench = bench.WithScale(0.25).WithThreads(1)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Aikido.Epoch = sharing.EpochPolicy{Interval: 1, DemoteAfter: 2, QuietAfter: 6, MinOwnerHits: 4}
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SD.FaultsHandled == 0 {
		t.Fatal("no faults handled: the guard is vacuous")
	}
	if res.Engine.InstrumentedExecs != 0 {
		t.Fatal("single-thread run instrumented instructions: the guard is vacuous")
	}
	if res.SD.EpochSweeps != 0 {
		t.Errorf("fault-only run swept %d times (the fault path must never end an epoch)",
			res.SD.EpochSweeps)
	}
}

// TestEpochTickNoAllocs is the 0-alloc guard on the epoch tick in the
// access hot path: the instrumented PreAccess sequence — tick check,
// sweep when due, page-state lookup, epoch accounting, mirror redirect —
// must allocate nothing once the page metadata exists.
func TestEpochTickNoAllocs(t *testing.T) {
	// Two workers write disjoint slots of one page so it turns (and
	// stays) Shared; dominance demotion is disabled so sweeps keep
	// running the accounting path forever.
	b := isa.NewBuilder("tickalloc")
	page := b.Global(vm.PageSize, vm.PageSize)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R10, isa.R0)
	b.ThreadJoin(isa.R9)
	b.Mov(isa.R9, isa.R10)
	b.ThreadJoin(isa.R9)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	b.Label("w")
	b.MovImm(isa.R3, 1)
	b.Shl(isa.R4, isa.R0, 3)
	b.MovImm(isa.R5, int64(page+8))
	b.Add(isa.R4, isa.R4, isa.R5)
	b.LoopN(isa.R2, 40, func(b *isa.Builder) {
		b.Store(isa.R4, 0, isa.R3)
	})
	b.Halt()
	prog := b.MustFinish()

	cfg := DefaultConfig(ModeAikidoFastTrack).WithAnalyses()
	cfg.Aikido.Epoch = sharing.EpochPolicy{Interval: 500, QuietAfter: 250, MinOwnerHits: 1}
	s, err := NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// Fish an instrumented memory instruction out of the detector and
	// replay its hot path directly.
	var pre func(tid int, pc isa.PC, addr uint64) uint64
	for pc := 0; pc < len(prog.Code); pc++ {
		in := prog.At(isa.PC(pc))
		if plan := s.SD.Instrument(isa.PC(pc), in); plan != nil {
			p := isa.PC(pc)
			pre = func(tid int, _ isa.PC, addr uint64) uint64 {
				return plan.PreAccess(2, p, addr, 8, true)
			}
			break
		}
	}
	if pre == nil {
		t.Fatal("no instrumented instruction after the run")
	}
	addr := isa.DataBase + 8
	pre(2, 0, addr) // warm caches
	if n := testing.AllocsPerRun(500, func() {
		pre(2, 0, addr)
	}); n != 0 {
		t.Errorf("instrumented access with epoch tick allocates %.2f objects per access, want 0", n)
	}
}
