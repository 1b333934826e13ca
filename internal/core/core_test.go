package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/sharing"
	"repro/internal/vm"
)

// privateProgram: two threads, each hammering its own private array.
// No page is ever shared (arrays are page-separated via distinct mmaps...
// here: distinct data pages by spacing).
func privateProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("private")
	// Two arrays on different pages (page = 4096 bytes).
	arr1 := b.Global(4096, 4096)
	arr2 := b.Global(4096, 4096)

	b.MovImm(isa.R5, int64(arr2))
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R8, int64(arr1))
	b.Label("mainwork")
	b.LoopN(isa.R2, iters, func(b *isa.Builder) {
		b.And(isa.R3, isa.R2, isa.R3) // filler ALU
		b.Shl(isa.R4, isa.R2, 3)
		b.And(isa.R4, isa.R4, isa.R4)
		b.MovImm(isa.R4, 0)
		b.Store(isa.R8, 0, isa.R2)
		b.Load(isa.R6, isa.R8, 0)
	})
	b.ThreadJoin(isa.R9)
	b.Halt()

	b.Label("worker")
	// R0 = array base.
	b.Mov(isa.R8, isa.R0)
	b.LoopN(isa.R2, iters, func(b *isa.Builder) {
		b.Store(isa.R8, 8, isa.R2)
		b.Load(isa.R6, isa.R8, 8)
	})
	b.Halt()
	return b.MustFinish()
}

// sharedProgram: two threads updating one shared counter. If locked is
// false the updates race.
func sharedProgram(iters int64, locked bool) *isa.Program {
	b := isa.NewBuilder("shared")
	ctr := b.Global(4096, 4096)

	body := func(b *isa.Builder) {
		if locked {
			b.Lock(1)
		}
		b.LoadAbs(isa.R3, ctr)
		b.AddImm(isa.R3, isa.R3, 1)
		b.StoreAbs(ctr, isa.R3)
		if locked {
			b.Unlock(1)
		}
	}
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.LoopN(isa.R2, iters, body)
	b.ThreadJoin(isa.R9)
	out := b.GlobalU64(0)
	b.LoadAbs(isa.R3, ctr)
	b.StoreAbs(out, isa.R3)
	b.Halt()

	b.Label("worker")
	b.LoopN(isa.R2, iters, body)
	b.Halt()
	return b.MustFinish()
}

func mustRun(t *testing.T, prog *isa.Program, mode Mode) *Result {
	t.Helper()
	res, err := Run(prog, DefaultConfig(mode))
	if err != nil {
		t.Fatalf("%v run failed: %v", mode, err)
	}
	return res
}

// everyStack is one config per stack NewSystem builds: each mode with its
// default selection, then Aikido with no analysis (AikidoSD alone).
func everyStack() []Config {
	return []Config{
		DefaultConfig(ModeNative),
		DefaultConfig(ModeDBI),
		DefaultConfig(ModeFastTrackFull),
		DefaultConfig(ModeAikidoFastTrack),
		DefaultConfig(ModeAikidoFastTrack).WithAnalyses(),
	}
}

func TestAllModesProduceSameProgramResult(t *testing.T) {
	// The observable behaviour (console output) must be identical in
	// every mode: instrumentation must be transparent.
	b := isa.NewBuilder("transparent")
	buf := b.Global(8, 8)
	ctr := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.Lock(1)
	b.LoadAbs(isa.R1, ctr)
	b.AddImm(isa.R1, isa.R1, 40)
	b.StoreAbs(ctr, isa.R1)
	b.Unlock(1)
	b.ThreadJoin(isa.R9)
	b.LoadAbs(isa.R1, ctr)
	b.AddImm(isa.R1, isa.R1, '0') // 40+2 = '*' when written as byte
	b.MovImm(isa.R2, int64(buf))
	b.StoreSized(1, isa.R2, 0, isa.R1)
	b.MovImm(isa.R0, int64(buf))
	b.MovImm(isa.R1, 1)
	b.Syscall(isa.SysWrite)
	b.Halt()
	b.Label("w")
	b.Lock(1)
	b.LoadAbs(isa.R1, ctr)
	b.AddImm(isa.R1, isa.R1, 2)
	b.StoreAbs(ctr, isa.R1)
	b.Unlock(1)
	b.Halt()
	prog := b.MustFinish()

	want := string(rune(42 + '0'))
	for _, cfg := range everyStack() {
		res, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("%v %v: %v", cfg.Mode, cfg.Analyses, err)
		}
		if res.Console != want {
			t.Errorf("%v %v: console = %q, want %q", cfg.Mode, cfg.Analyses, res.Console, want)
		}
	}
}

// TestPageStraddlingAccessAllModes stores 8 bytes at page end − k for
// k = 1..7, loads them back and writes the loaded value to the console.
// Every mode must split the access across the two pages and print the
// stored bytes (the direct memory path of the native, dbi and FastTrack
// modes used to hand the whole access to one frame, which panicked).
func TestPageStraddlingAccessAllModes(t *testing.T) {
	b := isa.NewBuilder("straddle")
	area := b.Global(2*vm.PageSize, vm.PageSize)
	out := b.Global(8, 8)
	var want []byte
	for k := uint64(1); k <= 7; k++ {
		v := 0x0807060504030201 + k*0x1010101010101010
		b.MovImm(isa.R1, int64(v))
		b.MovImm(isa.R2, int64(area+vm.PageSize-k))
		b.Store(isa.R2, 0, isa.R1)
		b.Load(isa.R3, isa.R2, 0)
		b.StoreAbs(out, isa.R3)
		b.MovImm(isa.R0, int64(out))
		b.MovImm(isa.R1, 8)
		b.Syscall(isa.SysWrite)
		want = binary.LittleEndian.AppendUint64(want, v)
	}
	b.Halt()
	prog := b.MustFinish()

	for _, cfg := range everyStack() {
		res, err := func() (res *Result, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return Run(prog, cfg)
		}()
		if err != nil {
			t.Errorf("%v %v: %v", cfg.Mode, cfg.Analyses, err)
			continue
		}
		if res.Console != string(want) {
			t.Errorf("%v %v: console = % x, want % x", cfg.Mode, cfg.Analyses, res.Console, want)
		}
	}
}

// TestFallThroughGuestFails runs a guest whose code ends without a
// branch, halt or exit: after its one instruction the thread's PC is past
// the program. Every mode must return an error naming the thread and the
// PC. An engine that built an empty block there would spin without
// retiring an instruction or reaching a quantum boundary, where no budget
// (MaxCycles here) can stop it, so a watchdog turns a hang into a failure.
func TestFallThroughGuestFails(t *testing.T) {
	b := isa.NewBuilder("fallthrough")
	b.MovImm(isa.R4, 1)
	prog := b.MustFinish()

	for _, cfg := range everyStack() {
		cfg.MaxCycles = 1e6
		done := make(chan error, 1)
		go func() {
			_, err := Run(prog, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "thread 1 pc 1: outside the program") {
				t.Errorf("%v %v: err = %v, want thread 1 pc 1 outside the program", cfg.Mode, cfg.Analyses, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v %v: run past the end of the program did not return", cfg.Mode, cfg.Analyses)
		}
	}
}

// TestGuestCannotUnmapMirror runs a guest that munmaps the code
// segment's mirror alias, the first one AikidoSD maps. The munmap syscall
// reaches the guest's own mmap mappings only, so every stack fails the
// same way, whether or not it maps mirrors.
func TestGuestCannotUnmapMirror(t *testing.T) {
	b := isa.NewBuilder("unmap-mirror")
	b.MovImm(isa.R0, int64(sharing.MirrorBase))
	b.Syscall(isa.SysMunmap)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog := b.MustFinish()

	want := fmt.Sprintf("dbi: thread 1 pc 1: guest: munmap of unknown mapping %#x", sharing.MirrorBase)
	for _, cfg := range everyStack() {
		if _, err := Run(prog, cfg); err == nil || err.Error() != want {
			t.Errorf("%v %v: err = %v, want %q", cfg.Mode, cfg.Analyses, err, want)
		}
	}
}

func TestPrivateWorkloadNeverShares(t *testing.T) {
	prog := privateProgram(200)
	res := mustRun(t, prog, ModeAikidoFastTrack)
	if res.SD.PagesShared != 0 {
		t.Errorf("private workload shared %d pages", res.SD.PagesShared)
	}
	if res.SD.SharedPageAccesses != 0 {
		t.Errorf("SharedPageAccesses = %d, want 0", res.SD.SharedPageAccesses)
	}
	if res.SharedAccessFraction() != 0 {
		t.Errorf("shared fraction = %v, want 0", res.SharedAccessFraction())
	}
	if len(racesOf(res)) != 0 {
		t.Errorf("races on private data: %v", racesOf(res))
	}
	// Pages did become private (threads touched their arrays + stacks).
	if res.SD.PagesPrivate == 0 {
		t.Error("no pages became private")
	}
}

func TestAikidoBeatsFullFastTrackOnPrivateWorkload(t *testing.T) {
	// Long enough that Aikido's fixed costs (startup protection, initial
	// page faults) amortize, as they do over PARSEC-length runs.
	prog := privateProgram(5000)
	native := mustRun(t, prog, ModeNative)
	full := mustRun(t, prog, ModeFastTrackFull)
	aikido := mustRun(t, prog, ModeAikidoFastTrack)

	sFull := full.Slowdown(native)
	sAikido := aikido.Slowdown(native)
	if sAikido >= sFull {
		t.Errorf("Aikido (%.1fx) not faster than FastTrack (%.1fx) on private data", sAikido, sFull)
	}
	// The win should be substantial on a fully private workload.
	if sFull/sAikido < 2 {
		t.Errorf("speedup only %.2fx on fully private workload", sFull/sAikido)
	}
}

func TestSharedCounterDetectedAndInstrumented(t *testing.T) {
	prog := sharedProgram(100, true)
	res := mustRun(t, prog, ModeAikidoFastTrack)

	if res.SD.PagesShared == 0 {
		t.Fatal("counter page never became shared")
	}
	if res.SD.SharedPageAccesses == 0 {
		t.Fatal("no shared-page accesses recorded")
	}
	if res.Engine.InstrumentedExecs == 0 {
		t.Fatal("no instrumented executions")
	}
	if res.SD.InstrumentedPCs == 0 {
		t.Fatal("no instructions instrumented")
	}
	if res.HV.AikidoFaults == 0 {
		t.Fatal("no aikido faults delivered")
	}
	// Locked counter: no races.
	if len(racesOf(res)) != 0 {
		t.Errorf("locked counter raced: %v", racesOf(res))
	}
	// Both detectors agree the final value is 2*iters (transparency).
	native := mustRun(t, prog, ModeNative)
	if res.Console != native.Console {
		t.Error("console differs from native")
	}
}

func TestRacyCounterCaughtByBothDetectors(t *testing.T) {
	// A fine quantum forces the threads to interleave within the loop, so
	// both threads keep accessing the counter after it becomes shared.
	prog := sharedProgram(60, false)
	runFine := func(mode Mode) *Result {
		cfg := DefaultConfig(mode)
		cfg.Quantum = 50
		res, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	full := runFine(ModeFastTrackFull)
	aikido := runFine(ModeAikidoFastTrack)
	if len(racesOf(full)) == 0 {
		t.Fatal("full FastTrack missed the racy counter")
	}
	if len(racesOf(aikido)) == 0 {
		t.Fatal("Aikido-FastTrack missed the racy counter")
	}
	// Same racing addresses (§5.3: "both tools were detecting the same
	// races").
	addrsOf := func(rs []fasttrack.Race) map[uint64]bool {
		m := map[uint64]bool{}
		for _, r := range rs {
			m[r.Addr] = true
		}
		return m
	}
	fa, aa := addrsOf(racesOf(full)), addrsOf(racesOf(aikido))
	for a := range aa {
		if !fa[a] {
			t.Errorf("aikido reported race at %#x that full FT did not", a)
		}
	}
}

func TestFirstAccessFalseNegativeWindow(t *testing.T) {
	// §6: a race between the *first two* accesses to an eventually-shared
	// page escapes Aikido (the accesses that trigger the Unused→Private→
	// Shared transitions are not instrumented) but full FastTrack sees it.
	b := isa.NewBuilder("firstaccess")
	x := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	// Main's one and only (first) access to the page.
	b.MovImm(isa.R1, 7)
	b.StoreAbs(x, isa.R1)
	b.Barrier(1, 2) // order the threads without a lock: barrier AFTER both wrote
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R1, 8)
	b.StoreAbs(x+8, isa.R1) // same page, different variable? No: race needs same block.
	b.StoreAbs(x, isa.R1)   // racing write, first-ever thread-2 access pair to the page
	b.Barrier(1, 2)
	b.Halt()
	prog := b.MustFinish()

	full := mustRun(t, prog, ModeFastTrackFull)
	aikido := mustRun(t, prog, ModeAikidoFastTrack)
	if len(racesOf(full)) == 0 {
		t.Fatal("full FastTrack must see the racing first accesses")
	}
	// Aikido misses the race on the x block: the faulting accesses that
	// drove Unused→Private and Private→Shared were not instrumented.
	for _, r := range racesOf(aikido) {
		if r.Addr == x {
			t.Errorf("aikido reported first-access race it cannot see: %v", r)
		}
	}
}

// kernelWriteProgram writes a buffer no thread has touched through the
// write syscall. The buffer's page is still Unused, hence protected, so
// the kernel's read of it trips Aikido protection. Its data is preset in
// the image so no user access happens before the write.
func kernelWriteProgram() *isa.Program {
	b := isa.NewBuilder("kemul")
	buf := b.Global(4096, 4096)
	b.Init(buf, []byte("abc"))
	b.MovImm(isa.R0, int64(buf))
	b.MovImm(isa.R1, 3)
	b.Syscall(isa.SysWrite)
	b.Halt()
	return b.MustFinish()
}

func TestKernelEmulationDuringWriteSyscall(t *testing.T) {
	// The write syscall dereferences a user buffer that is protected
	// (private to the writing thread after first touch — but the KERNEL
	// still trips Aikido protection on pages private to other threads or
	// unused). Easiest trigger: write a buffer the thread never touched.
	res := mustRun(t, kernelWriteProgram(), ModeAikidoFastTrack)
	if res.Console != "abc" {
		t.Errorf("console = %q, want abc (kernel emulation must read protected page)", res.Console)
	}
	if res.HV.KernelEmulations == 0 {
		t.Error("kernel emulation path not exercised")
	}
}

func TestDBIOverheadBetweenNativeAndAnalysis(t *testing.T) {
	prog := privateProgram(200)
	native := mustRun(t, prog, ModeNative)
	dbiOnly := mustRun(t, prog, ModeDBI)
	full := mustRun(t, prog, ModeFastTrackFull)
	if dbiOnly.Cycles <= native.Cycles {
		t.Error("DBI-only run not slower than native")
	}
	if full.Cycles <= dbiOnly.Cycles {
		t.Error("full analysis not slower than DBI-only")
	}
}

// TestAikidoProfileMode: Aikido with no analysis selected is AikidoSD
// alone, a sharing profiler.
func TestAikidoProfileMode(t *testing.T) {
	prog := sharedProgram(50, true)
	res, err := Run(prog, DefaultConfig(ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if res.SD.PagesShared == 0 {
		t.Error("profile run detected no sharing")
	}
	if len(res.Findings) != 0 || ftOf(res).Reads+ftOf(res).Writes != 0 {
		t.Error("profile run ran an analysis")
	}
}

func TestDeterministicRuns(t *testing.T) {
	prog := sharedProgram(100, false)
	a := mustRun(t, prog, ModeAikidoFastTrack)
	b := mustRun(t, prog, ModeAikidoFastTrack)
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Engine.Instructions != b.Engine.Instructions {
		t.Error("instruction counts differ across runs")
	}
	if len(racesOf(a)) != len(racesOf(b)) {
		t.Error("race counts differ across runs")
	}
}

func TestSharingStateMachineViaDetector(t *testing.T) {
	// Like sharedProgram, but both threads also spill to their own stack
	// so per-thread private pages exist alongside the shared counter.
	b := isa.NewBuilder("statemachine")
	ctr := b.Global(4096, 4096)
	body := func(b *isa.Builder) {
		b.Store(isa.SP, -8, isa.R2) // private stack spill
		b.Lock(1)
		b.LoadAbs(isa.R3, ctr)
		b.AddImm(isa.R3, isa.R3, 1)
		b.StoreAbs(ctr, isa.R3)
		b.Unlock(1)
	}
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.LoopN(isa.R2, 30, body)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("worker")
	b.LoopN(isa.R2, 30, body)
	b.Halt()
	prog := b.MustFinish()

	s, err := NewSystem(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The counter page (DataBase region, page-aligned global) is Shared.
	st, _ := s.SD.PageStateOf(isa.DataBase)
	if st != sharing.Shared {
		t.Errorf("counter page state = %v, want shared", st)
	}
	// Each thread's stack spill page is Private to it.
	for _, tid := range s.Process.Threads() {
		th := s.Process.Thread(tid)
		spill := th.Regs[isa.SP] - 8
		st, owner := s.SD.PageStateOf(spill)
		if st != sharing.Private || owner != tid {
			t.Errorf("thread %d stack state = %v owner %d, want private/%d", tid, st, owner, tid)
		}
	}
}
