package core

// Inline delivery contracts. Every access reaches the analyses
// synchronously, through the mux, at the instruction that issues it; the
// tests here pin what that buys: each access is analyzed exactly once, in
// issue order, before any later synchronization, address-space change,
// epoch sweep or exit, and a run is reproducible from its compiled
// program alone. Several names predate the removal of the batched and
// phased dispatch modes, whose tests compared the same programs against
// inline delivery; the programs stay, asserted directly.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fasttrack"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/workload"
)

// mux4 is the four-detector selection of the mux experiments.
var mux4 = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// runCfg runs prog under cfg, failing the test on a run error.
func runCfg(t *testing.T, prog *isa.Program, cfg Config) *Result {
	t.Helper()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("%v/%v: %v", cfg.Mode, cfg.Analyses, err)
	}
	return res
}

// requireIdentical asserts two Results are identical in every field,
// naming the first diverging group of fields.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	switch {
	case a.Cycles != b.Cycles:
		t.Errorf("%s: cycles diverge: %d vs %d", label, a.Cycles, b.Cycles)
	case a.Engine != b.Engine:
		t.Errorf("%s: engine counters diverge:\n%+v\n%+v", label, a.Engine, b.Engine)
	case a.SD != b.SD:
		t.Errorf("%s: sharing counters diverge:\n%+v\n%+v", label, a.SD, b.SD)
	default:
		for _, name := range a.AnalysisNames() {
			fa, fb := a.Findings[name], b.Findings[name]
			if fb == nil || !reflect.DeepEqual(fa.Strings(), fb.Strings()) || fa.Summary() != fb.Summary() {
				t.Errorf("%s/%s: findings or counters diverge", label, name)
			}
		}
		t.Errorf("%s: results diverge", label)
	}
}

// twoWorkerProgram spawns two workers running body (R0 holds the worker's
// index) and joins both.
func twoWorkerProgram(name string, body func(b *isa.Builder)) *isa.Program {
	b := isa.NewBuilder(name)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R10, isa.R0)
	b.ThreadJoin(isa.R9)
	b.Mov(isa.R9, isa.R10)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	body(b)
	b.Halt()
	return b.MustFinish()
}

// burstProgram: two workers each store to their own slot of one shared
// page n times back to back, with no synchronization in between.
func burstProgram(n int64) *isa.Program {
	return twoWorkerProgram("burst", func(b *isa.Builder) {
		page := b.Global(4096, 4096)
		b.Shl(isa.R4, isa.R0, 3)
		b.MovImm(isa.R5, int64(page))
		b.Add(isa.R4, isa.R4, isa.R5)
		b.MovImm(isa.R3, 1)
		b.LoopN(isa.R2, n, func(b *isa.Builder) {
			b.Store(isa.R4, 0, isa.R3)
		})
	})
}

// hotProgram builds a permanently hot page: nthreads workers hammer the
// same three slots of one page, unlocked, for iters iterations each —
// many writers every epoch, and real races for FastTrack to find.
func hotProgram(nthreads, iters int64) *isa.Program {
	b := isa.NewBuilder("hot")
	page := b.Global(4096, 4096)
	for i := int64(0); i < nthreads; i++ {
		b.MovImm(isa.R5, i)
		b.ThreadCreate("w", isa.R5)
		b.Mov(isa.R9+isa.Reg(i), isa.R0)
	}
	for i := int64(0); i < nthreads; i++ {
		b.Mov(isa.R9, isa.R9+isa.Reg(i))
		b.ThreadJoin(isa.R9)
	}
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R4, int64(page))
	b.MovImm(isa.R3, 1)
	b.LoopN(isa.R2, iters, func(b *isa.Builder) {
		b.Store(isa.R4, 0, isa.R3)
		b.Store(isa.R4, 8, isa.R3)
		b.Load(isa.R6, isa.R4, 16)
	})
	b.Halt()
	return b.MustFinish()
}

// hotEpochPolicy makes sweeps frequent enough that short programs cross
// many epoch boundaries. The interval spans several scheduling quanta: an
// epoch one thread monopolizes has a single writer.
func hotEpochPolicy() sharing.EpochPolicy {
	return sharing.EpochPolicy{Interval: 60_000, DemoteAfter: 2, QuietAfter: 6, MinOwnerHits: 4}
}

// phasedSources are the demotion-heavy epoch suites: phase-partitioned
// pages and their migratory variant.
func phasedSources() []workload.Source {
	phased := workload.PhasedSpec{
		Name: "phased", Threads: 8, Phases: 6, PhaseIters: 200,
		PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, WarmupOps: 1,
	}
	migratory := phased
	migratory.Name = "migratory"
	migratory.MigrateStride = 1
	return []workload.Source{phased, migratory}
}

// TestDeferredByteIdenticalOnParsec: for every PARSEC model, both
// analysis-bearing modes and both the default and the four-detector
// selection, two Systems built from one compiled Program produce
// identical Results — cycles, engine and sharing counters, findings and
// analysis counters. The runner shares a compiled program across cells,
// so a run may neither mutate its Program nor leak state into the next.
func TestDeferredByteIdenticalOnParsec(t *testing.T) {
	for _, bench := range parsec.All() {
		bench := bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatalf("%s: build: %v", bench.Name, err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			for _, sel := range [][]string{{"fasttrack"}, mux4} {
				cfg := DefaultConfig(mode)
				cfg.Analyses = sel
				label := bench.Name + "/" + mode.String()
				if len(sel) > 1 {
					label += "/mux"
				}
				first := runCfg(t, prog, cfg)
				if first.TotalFindings() == 0 && ftOf(first).Reads+ftOf(first).Writes == 0 {
					t.Errorf("%s: no access reached the analyses", label)
				}
				requireIdentical(t, label, first, runCfg(t, prog, cfg))
			}
		}
	}
}

// TestDeferredByteIdenticalWithEpochs is the same reproducibility
// contract where it is hardest: the default configuration's armed epoch
// clock reads the simulated clock between accesses, so every analysis
// charge must land before the boundary check that follows it.
// Demotion-heavy suites, where sweeps fire and re-arm pages, must
// reproduce exactly, tick for tick.
func TestDeferredByteIdenticalWithEpochs(t *testing.T) {
	for _, src := range phasedSources() {
		prog, err := src.Compile()
		if err != nil {
			t.Fatalf("%s: %v", src.SourceName(), err)
		}
		cfg := DefaultConfig(ModeAikidoFastTrack)
		first := runCfg(t, prog, cfg)
		if first.SD.PagesDemotedPrivate == 0 || first.SD.EpochSweeps == 0 {
			t.Errorf("%s: no demotion (sweeps=%d) — the epoch coverage is vacuous",
				src.SourceName(), first.SD.EpochSweeps)
		}
		requireIdentical(t, src.SourceName()+"/epoch", first, runCfg(t, prog, cfg))
	}
}

// TestDeferredDrainPoints: a long burst of accesses with no
// synchronization in between is analyzed exactly once per access,
// whether the scheduler slices it finely or runs each burst whole.
func TestDeferredDrainPoints(t *testing.T) {
	const n = 768
	prog := burstProgram(n)
	for _, quantum := range []uint64{50, 100000} {
		cfg := DefaultConfig(ModeFastTrackFull)
		cfg.Quantum = quantum
		c := ftOf(runCfg(t, prog, cfg))
		if c.Writes != 2*n || c.Reads != 0 {
			t.Errorf("quantum %d: analyzed %d writes and %d reads, want %d writes and 0 reads",
				quantum, c.Writes, c.Reads, 2*n)
		}
	}
}

// recordingAnalysis logs every event it receives, in arrival order.
type recordingAnalysis struct {
	analysis.NoSync
	events []string
}

func (r *recordingAnalysis) Name() string { return "recorder" }
func (r *recordingAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	r.events = append(r.events, fmt.Sprintf("T%d@%#x", tid, addr))
}
func (r *recordingAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	r.events = append(r.events, fmt.Sprintf("T%d@%#x/shared", tid, addr))
}
func (r *recordingAnalysis) OnAcquire(tid guest.TID, lock int64) {
	r.events = append(r.events, fmt.Sprintf("T%d+L%d", tid, lock))
}
func (r *recordingAnalysis) OnRelease(tid guest.TID, lock int64) {
	r.events = append(r.events, fmt.Sprintf("T%d-L%d", tid, lock))
}
func (r *recordingAnalysis) Report() analysis.Findings { return nil }

// TestDeferredMergeRestoresGlobalOrder: the mux hands every member the
// events in issue order — accesses from interleaved threads and the
// synchronization between them — so no member ever sees an access on
// the wrong side of a lock operation.
func TestDeferredMergeRestoresGlobalOrder(t *testing.T) {
	a, b := &recordingAnalysis{}, &recordingAnalysis{}
	m := analysis.NewMux(a, b)
	var want []string
	order := []int32{1, 1, 1, 3, 3, 2, 1, 2, 2, 2, 3, 1}
	for i, tid := range order {
		tid := guest.TID(tid)
		addr := uint64(0x1000 + i*8)
		switch i % 4 {
		case 0:
			m.OnAccess(tid, isa.PC(i), addr, 8, false)
			want = append(want, fmt.Sprintf("T%d@%#x", tid, addr))
		case 1:
			m.OnSharedAccess(tid, isa.PC(i), addr, 8, true)
			want = append(want, fmt.Sprintf("T%d@%#x/shared", tid, addr))
		case 2:
			m.OnAcquire(tid, 1)
			want = append(want, fmt.Sprintf("T%d+L1", tid))
		default:
			m.OnRelease(tid, 1)
			want = append(want, fmt.Sprintf("T%d-L1", tid))
		}
	}
	for i, r := range []*recordingAnalysis{a, b} {
		if !reflect.DeepEqual(r.events, want) {
			t.Errorf("member %d saw %v, want %v", i, r.events, want)
		}
	}
}

// TestDeferredRetireObserverFallsBack: an analysis that watches every
// retired instruction (taint's register-dataflow half) adds a second
// event stream beside the access stream without perturbing it — the
// multiplexed FastTrack reports exactly what it reports alone.
func TestDeferredRetireObserverFallsBack(t *testing.T) {
	prog := sharedProgram(40, false)
	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = []string{"taint", "fasttrack"}
	s, err := NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine.OnRetire == nil {
		t.Fatal("taint selected but no retire observer wired")
	}
	both, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Analyses = []string{"fasttrack"}
	alone := runCfg(t, prog, cfg)
	if len(racesOf(alone)) == 0 {
		t.Fatal("racy program raced nowhere — the comparison is vacuous")
	}
	if !reflect.DeepEqual(racesOf(both), racesOf(alone)) || ftOf(both) != ftOf(alone) {
		t.Errorf("fasttrack diverges beside taint:\nwith taint: %v %+v\nalone:      %v %+v",
			racesOf(both), ftOf(both), racesOf(alone), ftOf(alone))
	}
}

// TestDeferredRingPushNoAllocs is the delivery path's 0-alloc guard: once
// the analyses' metadata for an address exists, handing them an access —
// through the System's own dispatch stack, the mux and the detector —
// allocates nothing.
func TestDeferredRingPushNoAllocs(t *testing.T) {
	s, err := NewSystem(sharedProgram(1, false), DefaultConfig(ModeFastTrackFull))
	if err != nil {
		t.Fatal(err)
	}
	s.an.AddThread(1)
	s.an.OnAccess(2, 10, 0x1000, 8, true) // create the metadata
	if n := testing.AllocsPerRun(1000, func() {
		s.an.OnAccess(2, 10, 0x1000, 8, true)
		s.an.OnAccess(2, 11, 0x1008, 8, false)
	}); n != 0 {
		t.Errorf("inline delivery allocates %.2f objects per access pair, want 0", n)
	}
}

// TestVectorDrainNoAllocs extends the guard to a four-detector selection:
// the mux fans one access out to every member without allocating.
func TestVectorDrainNoAllocs(t *testing.T) {
	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = mux4
	s, err := NewSystem(sharedProgram(1, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.an.AddThread(1)
	for i := 0; i < 2; i++ { // create every member's metadata
		s.an.OnAccess(2, 10, 0x1000, 8, true)
		s.an.OnAccess(2, 11, 0x1008, 8, false)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.an.OnAccess(2, 10, 0x1000, 8, true)
		s.an.OnAccess(2, 11, 0x1008, 8, false)
	}); n != 0 {
		t.Errorf("four-way inline delivery allocates %.2f objects per access pair, want 0", n)
	}
}

// TestPhaseBankNoAllocs guards the hot shared-page path end to end under
// Aikido: an instrumented access to a page many threads write — the
// sharing detector's state lookup and mirror redirect, then delivery to
// FastTrack — allocates nothing once the page is Shared.
func TestPhaseBankNoAllocs(t *testing.T) {
	prog := hotProgram(2, 50)
	s, err := NewSystem(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SD.PagesShared == 0 {
		t.Fatal("hot page never shared — the guard is vacuous")
	}
	var pre func()
	for pc := 0; pc < len(prog.Code) && pre == nil; pc++ {
		if plan := s.SD.Instrument(isa.PC(pc), prog.At(isa.PC(pc))); plan != nil {
			p := isa.PC(pc)
			pre = func() { plan.PreAccess(2, p, isa.DataBase, 8, true) }
		}
	}
	if pre == nil {
		t.Fatal("no instrumented instruction after the run")
	}
	ft := s.Analysis("fasttrack").(*fasttrack.Detector)
	before := ft.C.Writes
	pre() // warm caches
	if n := testing.AllocsPerRun(500, pre); n != 0 {
		t.Errorf("shared-page access allocates %.2f objects per access, want 0", n)
	}
	if ft.C.Writes <= before {
		t.Error("the replayed accesses never reached FastTrack")
	}
}

// TestDeferredTrailingAccessesBeforeExit pins the end of a run: accesses
// between the program's last synchronization event and SysExit (which
// fires no thread-exit hook) are analyzed, and their charges land before
// Result.Cycles is captured — one more trailing iteration means exactly
// one more analyzed read and write, and more cycles.
func TestDeferredTrailingAccessesBeforeExit(t *testing.T) {
	trailing := func(iters int64) *isa.Program {
		b := isa.NewBuilder("trailing")
		arr := b.Global(4096, 4096)
		b.MovImm(isa.R5, 0)
		b.ThreadCreate("w", isa.R5)
		b.Mov(isa.R9, isa.R0)
		b.ThreadJoin(isa.R9)
		// After the last sync event: a burst of analyzed accesses, then exit.
		b.MovImm(isa.R3, 7)
		b.LoopN(isa.R2, iters, func(b *isa.Builder) {
			b.StoreAbs(arr+8, isa.R3)
			b.LoadAbs(isa.R4, arr+16)
		})
		b.MovImm(isa.R0, 0)
		b.Syscall(isa.SysExit)
		b.Label("w")
		b.MovImm(isa.R3, 1)
		b.StoreAbs(arr+8, isa.R3)
		b.Halt()
		return b.MustFinish()
	}
	cfg := DefaultConfig(ModeFastTrackFull)
	short, long := runCfg(t, trailing(30), cfg), runCfg(t, trailing(31), cfg)
	cs, cl := ftOf(short), ftOf(long)
	if cl.Reads != cs.Reads+1 || cl.Writes != cs.Writes+1 {
		t.Errorf("one more trailing iteration analyzed %d reads and %d writes more, want 1 and 1",
			cl.Reads-cs.Reads, cl.Writes-cs.Writes)
	}
	if cs.Writes < 31 {
		t.Errorf("trailing burst not analyzed: %d writes", cs.Writes)
	}
	if long.Cycles <= short.Cycles {
		t.Errorf("trailing accesses not charged: %d cycles for 31 iterations, %d for 30", long.Cycles, short.Cycles)
	}
}

// TestDeferredVMARemovalDrainsFirst pins access delivery against an
// address-space change: a store between mmap and munmap reaches memcheck
// while the region's shadow state still exists, so memcheck — which
// drops the shadow on munmap — reports nothing.
func TestDeferredVMARemovalDrainsFirst(t *testing.T) {
	b := isa.NewBuilder("mapdrain")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.MovImm(isa.R5, 1)
	b.Store(isa.R4, 0, isa.R5) // no sync before the munmap
	b.Mov(isa.R0, isa.R4)
	b.Syscall(isa.SysMunmap)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog := b.MustFinish()

	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = []string{"memcheck"}
	res := runCfg(t, prog, cfg)
	if mc := res.AnalysisFindings("memcheck"); mc.Len() != 0 {
		t.Errorf("memcheck reports %v on a store to a live mapping", mc.Strings())
	}
	if res.Engine.InstrumentedExecs == 0 {
		t.Error("the store was never instrumented — the check is vacuous")
	}
}

// TestPhaseByteIdentical: epoch sweeps never change what FastTrack
// reports. On the demotion-heavy suites and a lock-disciplined counter,
// inline+epoch findings and race sets equal the epoch-free run's; the
// counter, whose page never falls back to one owner, is identical in
// every field but the epoch machinery's own counters.
func TestPhaseByteIdentical(t *testing.T) {
	progs := map[string]*isa.Program{"locked-counter": sharedProgram(200, true)}
	for _, src := range phasedSources() {
		prog, err := src.Compile()
		if err != nil {
			t.Fatalf("%s: %v", src.SourceName(), err)
		}
		progs[src.SourceName()] = prog
	}
	for name, prog := range progs {
		cfg := DefaultConfig(ModeAikidoFastTrack)
		cfg.Aikido.Epoch = sharing.EpochPolicy{}
		plain := runCfg(t, prog, cfg)
		cfg.Aikido.Epoch = sharing.DefaultEpochPolicy()
		if name == "locked-counter" {
			// Too short for a default epoch: sweep it many times.
			cfg.Aikido.Epoch = hotEpochPolicy()
		}
		ep := runCfg(t, prog, cfg)
		if !reflect.DeepEqual(racesOf(plain), racesOf(ep)) {
			t.Errorf("%s: race sets diverge:\nplain: %v\nepoch: %v", name, racesOf(plain), racesOf(ep))
		}
		if name != "locked-counter" {
			if ep.SD.PagesDemotedPrivate == 0 {
				t.Errorf("%s: no demotion — the epoch coverage is vacuous", name)
			}
			continue
		}
		if ep.SD.PagesDemotedPrivate != 0 || ep.SD.EpochSweeps == 0 {
			t.Errorf("%s: demoted %d pages over %d sweeps, want none over some",
				name, ep.SD.PagesDemotedPrivate, ep.SD.EpochSweeps)
		}
		ep.SD = stripEpochCounters(ep.SD)
		plain.SD = stripEpochCounters(plain.SD)
		requireIdentical(t, name, plain, ep)
	}
}

// TestPhaseSplitsHotPage: a page many threads write every epoch is never
// demoted — sweeps keep finding several writers — so it stays Shared and
// instrumented, and its races are reported as without epochs.
func TestPhaseSplitsHotPage(t *testing.T) {
	prog := hotProgram(4, 3000)
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Quantum = 200
	cfg.Aikido.Epoch = sharing.EpochPolicy{}
	plain := runCfg(t, prog, cfg)
	cfg.Aikido.Epoch = hotEpochPolicy()
	ep := runCfg(t, prog, cfg)
	if ep.SD.EpochSweeps < 4 {
		t.Fatalf("only %d sweeps — the hot page was never classified", ep.SD.EpochSweeps)
	}
	if ep.SD.PagesDemotedPrivate != 0 || ep.SD.PagesDemotedUnused != 0 {
		t.Errorf("hot page demoted (%d private, %d unused)", ep.SD.PagesDemotedPrivate, ep.SD.PagesDemotedUnused)
	}
	if len(racesOf(ep)) == 0 {
		t.Fatal("hot racy program produced no races — the preservation check is vacuous")
	}
	if !reflect.DeepEqual(racesOf(plain), racesOf(ep)) || ftOf(plain) != ftOf(ep) {
		t.Errorf("epoch sweeps changed FastTrack's view of the hot page:\nplain: %v %+v\nepoch: %v %+v",
			racesOf(plain), ftOf(plain), racesOf(ep), ftOf(ep))
	}
}

// TestPhaseReconcilePreservesRaces is the schedule-robustness half:
// across scheduling quanta from pathological to coarse, the race set on
// a hot racy page under frequent epoch sweeps equals the epoch-free
// run's on the same schedule.
func TestPhaseReconcilePreservesRaces(t *testing.T) {
	prog := hotProgram(4, 2000)
	for _, quantum := range []uint64{7, 53, 311, 977} {
		cfg := DefaultConfig(ModeAikidoFastTrack)
		cfg.Quantum = quantum
		cfg.Aikido.Epoch = sharing.EpochPolicy{}
		plain := runCfg(t, prog, cfg)
		cfg.Aikido.Epoch = hotEpochPolicy()
		ep := runCfg(t, prog, cfg)
		if ep.SD.EpochSweeps == 0 {
			t.Fatalf("quantum %d: no epoch sweep", quantum)
		}
		rp, re := racesOf(plain), racesOf(ep)
		if len(rp) == 0 {
			t.Fatalf("quantum %d: no races — preservation is vacuous", quantum)
		}
		if !reflect.DeepEqual(rp, re) {
			t.Errorf("quantum %d: race sets diverge:\nplain: %v\nepoch: %v", quantum, rp, re)
		}
	}
}

// TestVectorFallbackCounted: an access straddling an 8-byte block
// boundary is checked against both blocks. Two workers storing 8 bytes at
// offset 4 of a shared page race on both blocks the stores span.
func TestVectorFallbackCounted(t *testing.T) {
	var page uint64
	prog := twoWorkerProgram("straddle", func(b *isa.Builder) {
		page = b.Global(4096, 4096)
		b.MovImm(isa.R4, int64(page+4))
		b.MovImm(isa.R3, 7)
		b.LoopN(isa.R2, 20, func(b *isa.Builder) {
			b.Store(isa.R4, 0, isa.R3)
		})
	})
	res := runCfg(t, prog, DefaultConfig(ModeFastTrackFull))
	blocks := map[uint64]bool{}
	for _, r := range racesOf(res) {
		blocks[r.Addr] = true
	}
	if !blocks[page] || !blocks[page+8] {
		t.Errorf("straddling stores raced on blocks %v, want both %#x and %#x", blocks, page, page+8)
	}
}

// TestVectorizedByteIdentical is the mux property test over generated
// guests: across 64 random schedules and both instrumentation modes,
// every member of the four-detector selection reports exactly the
// findings and counters of its own single-analysis run. Findings totals
// are checked at the end so the property cannot hold vacuously.
func TestVectorizedByteIdentical(t *testing.T) {
	found := map[string]int{}
	for seed := int64(0); seed < 64; seed++ {
		prog := randomScheduleProgram(seed)
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			cfg := DefaultConfig(mode)
			cfg.Analyses = mux4
			mux := runCfg(t, prog, cfg)
			for _, name := range mux4 {
				cfg.Analyses = []string{name}
				single := runCfg(t, prog, cfg)
				mf, sf := mux.Findings[name], single.Findings[name]
				if !reflect.DeepEqual(mf.Strings(), sf.Strings()) || mf.Summary() != sf.Summary() {
					t.Errorf("seed%d/%v/%s: mux diverges from the single run:\nmux:    %s %v\nsingle: %s %v",
						seed, mode, name, mf.Summary(), mf.Strings(), sf.Summary(), sf.Strings())
				}
				found[name] += mf.Len()
			}
		}
	}
	for _, name := range []string{"fasttrack", "lockset"} {
		if found[name] == 0 {
			t.Errorf("%s found nothing on 64 random schedules — the property is vacuous", name)
		}
	}
}

// TestVectorizedDrainBoundaryOrdering pins the two orderings delivery
// must never slip:
//
//  1. Sync boundaries: every access reaches the analyses BEFORE the next
//     sync hook advances vector clocks. A lock-ordered write handoff is
//     therefore race-free; delivering after the release's clock tick
//     would make the second write look concurrent.
//  2. Issue order: two threads racing on two variables in opposite
//     access orders (T1 reads X then writes Y; T2 reads Y then writes X)
//     produce race reports whose kinds and prior/current roles encode the
//     processing order — any reordering changes the findings strings.
func TestVectorizedDrainBoundaryOrdering(t *testing.T) {
	b := isa.NewBuilder("handoff")
	x := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w1", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("w2", isa.R5)
	b.Mov(isa.R10, isa.R0)
	b.ThreadJoin(isa.R9)
	b.Mov(isa.R9, isa.R10)
	b.ThreadJoin(isa.R9)
	b.Halt()
	for _, w := range []string{"w1", "w2"} {
		b.Label(w)
		b.Lock(1)
		b.MovImm(isa.R3, 1)
		b.LoopN(isa.R2, 8, func(b *isa.Builder) {
			b.StoreAbs(x+64, isa.R3)
		})
		b.Unlock(1)
		b.Halt()
	}
	handoff := b.MustFinish()
	cfg := DefaultConfig(ModeFastTrackFull)
	res := runCfg(t, handoff, cfg)
	if n := len(racesOf(res)); n != 0 {
		t.Errorf("lock-ordered handoff reports %d races", n)
	}
	if ftOf(res).Writes != 16 {
		t.Errorf("handoff analyzed %d writes, want 16", ftOf(res).Writes)
	}

	b = isa.NewBuilder("cross")
	g := b.Global(2*4096, 4096)
	xAddr, yAddr := g+8, g+4096+8
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("t1", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("t2", isa.R5)
	b.Mov(isa.R10, isa.R0)
	b.ThreadJoin(isa.R9)
	b.Mov(isa.R9, isa.R10)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("t1")
	b.LoadAbs(isa.R3, xAddr)
	b.MovImm(isa.R4, 1)
	b.StoreAbs(yAddr, isa.R4)
	b.Halt()
	b.Label("t2")
	b.LoadAbs(isa.R3, yAddr)
	b.MovImm(isa.R4, 2)
	b.StoreAbs(xAddr, isa.R4)
	b.Halt()
	cross := b.MustFinish()
	got := runCfg(t, cross, cfg).AnalysisFindings("fasttrack").Strings()
	want := []string{
		"read-write race on 0x10000008: thread 2 (pc 16) vs thread 3 (pc 22)",
		"write-read race on 0x10001008: thread 2 (pc 18) vs thread 3 (pc 20)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross races = %q, want %q", got, want)
	}
}

// TestVectorizedRingFullSplit: a long same-block write burst takes
// FastTrack's same-epoch fast path for every write after each thread's
// first, however the scheduler slices it.
func TestVectorizedRingFullSplit(t *testing.T) {
	const n = 768
	prog := burstProgram(n)
	for _, quantum := range []uint64{50, 100000} {
		cfg := DefaultConfig(ModeFastTrackFull)
		cfg.Quantum = quantum
		c := ftOf(runCfg(t, prog, cfg))
		if c.SameEpoch != 2*(n-1) {
			t.Errorf("quantum %d: %d same-epoch hits on two %d-write bursts, want %d",
				quantum, c.SameEpoch, n, 2*(n-1))
		}
	}
}
