package sharing_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/sharing"
	"repro/internal/stats"
	"repro/internal/vm"
)

// build assembles a two-page program where main touches page A, the worker
// touches page B, and (optionally) both touch page C.
func build(t *testing.T, both bool) (*isa.Program, uint64, uint64, uint64) {
	t.Helper()
	b := isa.NewBuilder("sdtest")
	pa := b.Global(vm.PageSize, vm.PageSize)
	pb := b.Global(vm.PageSize, vm.PageSize)
	pc := b.Global(vm.PageSize, vm.PageSize)

	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R1, 1)
	b.StoreAbs(pa, isa.R1)
	if both {
		b.StoreAbs(pc, isa.R1)
	}
	b.ThreadJoin(isa.R9)
	b.Halt()

	b.Label("worker")
	b.MovImm(isa.R1, 2)
	b.StoreAbs(pb, isa.R1)
	if both {
		b.LoopN(isa.R2, 3, func(b *isa.Builder) {
			b.LoadAbs(isa.R3, pc)
		})
	}
	b.Halt()
	return b.MustFinish(), pa, pb, pc
}

func runSD(t *testing.T, prog *isa.Program) *core.System {
	t.Helper()
	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure3StateMachine(t *testing.T) {
	prog, pa, pb, pc := build(t, true)
	s := runSD(t, prog)

	st, owner := s.SD.PageStateOf(pa)
	if st != sharing.Private || owner != 1 {
		t.Errorf("page A: %v/%d, want private/1", st, owner)
	}
	st, owner = s.SD.PageStateOf(pb)
	if st != sharing.Private || owner != 2 {
		t.Errorf("page B: %v/%d, want private/2", st, owner)
	}
	st, _ = s.SD.PageStateOf(pc)
	if st != sharing.Shared {
		t.Errorf("page C: %v, want shared", st)
	}
}

func TestUntouchedPagesStayUnused(t *testing.T) {
	prog, _, _, pc := build(t, false)
	s := runSD(t, prog)
	st, _ := s.SD.PageStateOf(pc)
	if st != sharing.Unused {
		t.Errorf("untouched page: %v, want unused", st)
	}
}

func TestOnePageFaultPerPrivatePage(t *testing.T) {
	// "the Aikido sharing detector requires just one page fault per
	// thread for each page that will remain private" (§3.3.2): repeated
	// accesses to a private page add no further faults.
	b := isa.NewBuilder("onefault")
	pa := b.Global(vm.PageSize, vm.PageSize)
	b.MovImm(isa.R1, int64(pa))
	b.LoopN(isa.R2, 50, func(b *isa.Builder) {
		b.Store(isa.R1, 0, isa.R2)
		b.Load(isa.R3, isa.R1, 0)
	})
	b.Halt()
	s := runSD(t, b.MustFinish())
	// Exactly one data fault for page A (stack untouched, code pages are
	// DynamoRIO touches, not app faults).
	if got := s.SD.C.FaultsHandled; got != 1 {
		t.Errorf("FaultsHandled = %d, want 1", got)
	}
	if s.SD.C.SpuriousFaults != 0 {
		t.Errorf("SpuriousFaults = %d", s.SD.C.SpuriousFaults)
	}
}

func TestSharedPageStaysGloballyProtected(t *testing.T) {
	// After a page becomes shared, every NEW instruction accessing it
	// faults once (then is instrumented); instrumented instructions
	// never fault again.
	b := isa.NewBuilder("stayprot")
	pc := b.Global(vm.PageSize, vm.PageSize)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R1, 1)
	b.StoreAbs(pc, isa.R1) // instr X: first access, page -> private(1)
	b.ThreadJoin(isa.R9)
	// Three distinct instructions post-sharing: each faults exactly once.
	b.LoadAbs(isa.R2, pc)
	b.LoadAbs(isa.R3, pc+8)
	b.StoreAbs(pc+16, isa.R3)
	// And a loop re-executing one instrumented instruction many times.
	b.LoopN(isa.R4, 40, func(b *isa.Builder) {
		b.LoadAbs(isa.R2, pc)
	})
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R1, 2)
	b.StoreAbs(pc, isa.R1) // second thread: page -> shared
	b.Halt()
	prog := b.MustFinish()
	s := runSD(t, prog)

	if st, _ := s.SD.PageStateOf(pc); st != sharing.Shared {
		t.Fatalf("page not shared")
	}
	// Faults: X (unused->private), worker store (private->shared, instr),
	// 3 post-sharing instructions + 1 loop body instruction = 4 more.
	// Instrumented PCs: worker store + 4 = 5.
	if got := s.SD.C.InstrumentedPCs; got != 5 {
		t.Errorf("InstrumentedPCs = %d, want 5", got)
	}
	if got := s.SD.C.FaultsHandled; got != 6 {
		t.Errorf("FaultsHandled = %d, want 6 (1 private + 5 instrumentation)", got)
	}
	// The loop's 40 executions all went through the mirror: 40 + loads +
	// store = 44 shared accesses... plus the worker's instrumented store
	// re-execution (43+1+1? count exactly: 3 singles + 40 loop + 1 worker
	// retry execution).
	if got := s.SD.C.SharedPageAccesses; got != 44 {
		t.Errorf("SharedPageAccesses = %d, want 44", got)
	}
}

func TestMemoryValuesCorrectThroughMirror(t *testing.T) {
	// Values written through mirrors must be the values read back, both
	// by instrumented and newly instrumented instructions.
	b := isa.NewBuilder("mirrorval")
	pg := b.Global(vm.PageSize, vm.PageSize)
	out := b.Global(8, 8)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.Lock(1)
	b.MovImm(isa.R1, 100)
	b.StoreAbs(pg, isa.R1)
	b.Unlock(1)
	b.ThreadJoin(isa.R9)
	b.LoadAbs(isa.R2, pg) // should see worker's 200 (worker ran after join? no: worker may run before)
	b.StoreAbs(out, isa.R2)
	b.Halt()
	b.Label("w")
	b.Lock(1)
	b.MovImm(isa.R1, 200)
	b.StoreAbs(pg, isa.R1)
	b.Unlock(1)
	b.Halt()
	prog := b.MustFinish()

	native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	aikido, err := core.Run(prog, core.DefaultConfig(core.ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: both modes schedule identically, so the final value
	// must agree between native and Aikido execution.
	_ = native
	_ = aikido
	sys, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	nat, err := core.NewSystem(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nat.Run(); err != nil {
		t.Fatal(err)
	}
	vA, fA := sys.HV.Load(1, out, 8, false)
	if fA != nil {
		t.Fatal(fA)
	}
	vN, fN := nat.Engine.Mem.Load(1, out, 8, true)
	if fN != nil {
		t.Fatal(fN)
	}
	if vA != vN {
		t.Errorf("aikido result %d != native %d", vA, vN)
	}
}

func TestDRCodeTouches(t *testing.T) {
	prog, _, _, _ := build(t, true)
	s := runSD(t, prog)
	if s.SD.C.DRUnprotects == 0 {
		t.Error("block building never hit protected code pages")
	}
	// Code pages never become app-shared from DynamoRIO touches alone.
	if st, _ := s.SD.PageStateOf(isa.CodeBase); st != sharing.Unused {
		t.Errorf("code page state changed by DR touches: %v", st)
	}
}

// TestDRCodeTouchCharges: DynamoRIO's read of a code page protected for
// the reading thread is one fault into its handler plus two AikidoLib
// hypercalls, unprotect and reprotect, each counted where it is charged,
// and it leaves the page's state as it was. The touch's page-state lookup
// is a shadow translation, a miss on the thread's first touch.
func TestDRCodeTouchCharges(t *testing.T) {
	prog, _, _, _ := build(t, false)
	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.SD.PageStateOf(isa.CodeBase); st != sharing.Unused {
		t.Fatalf("code page before the run: %v, want unused", st)
	}
	touches, hypercalls, cycles := s.SD.C.DRUnprotects, s.HV.Stats.Hypercalls, s.Clock.Cycles()
	s.SD.TouchCode(1, isa.CodeBase)
	if got := s.SD.C.DRUnprotects - touches; got != 1 {
		t.Errorf("touch counted %d DR unprotects, want 1", got)
	}
	if got := s.HV.Stats.Hypercalls - hypercalls; got != 2 {
		t.Errorf("touch counted %d hypercalls, want 2", got)
	}
	if got, want := s.Clock.Cycles()-cycles, stats.ShadowTranslateMiss+stats.Fault+2*stats.Hypercall; got != want {
		t.Errorf("touch charged %d cycles, want ShadowTranslateMiss + Fault + 2 × Hypercall = %d", got, want)
	}
	if st, _ := s.SD.PageStateOf(isa.CodeBase); st != sharing.Unused {
		t.Errorf("code page after the touch: %v, want unused", st)
	}
}

func TestInstrumentOnlyAfterSharing(t *testing.T) {
	prog, _, _, _ := build(t, false) // no page shared
	s := runSD(t, prog)
	if s.SD.InstrumentedPCs() != 0 {
		t.Errorf("instrumented %d PCs without sharing", s.SD.InstrumentedPCs())
	}
	if s.SD.C.SharedPageAccesses != 0 {
		t.Error("shared accesses without sharing")
	}
}

func TestIndirectPrivateCheckPath(t *testing.T) {
	// An indirect instruction that touches BOTH a shared page and a
	// private page: once instrumented, its private-page executions take
	// the check-and-skip path (PrivateChecked) and stay un-analyzed.
	b := isa.NewBuilder("indirect")
	shared := b.Global(vm.PageSize, vm.PageSize)
	priv := b.Global(vm.PageSize, vm.PageSize)

	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	// Main loop alternates the SAME indirect store between shared and
	// private pages.
	b.MovImm(isa.R6, int64(shared))
	b.MovImm(isa.R7, int64(priv))
	b.LoopN(isa.R2, 20, func(b *isa.Builder) {
		b.Store(isa.R6, 0, isa.R2) // indirect via R6
		b.Store(isa.R7, 0, isa.R2) // indirect via R7 — stays private... but
		// use ONE instruction for both pages: swap R6/R7 each iter.
		b.Mov(isa.R3, isa.R6)
		b.Mov(isa.R6, isa.R7)
		b.Mov(isa.R7, isa.R3)
	})
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R1, 9)
	b.StoreAbs(shared, isa.R1) // makes `shared` page shared once main touched it
	b.Halt()
	prog := b.MustFinish()

	cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
	cfg.Quantum = 40 // interleave within the loop
	s, err := core.NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SD.C.PrivateChecked == 0 {
		t.Error("indirect shared/private check never took the private path")
	}
	if s.SD.C.SharedPageAccesses == 0 {
		t.Error("indirect instruction never analyzed on shared page")
	}
}

func TestNewMmapIsProtectedImmediately(t *testing.T) {
	// Memory mapped at runtime must be protected like startup memory:
	// first toucher owns it, second toucher shares it.
	b := isa.NewBuilder("mmapprot")
	ptr := b.Global(8, 8)
	b.MovImm(isa.R0, vm.PageSize)
	b.MovImm(isa.R1, 0)
	b.Syscall(isa.SysMmap)
	b.StoreAbs(ptr, isa.R0) // publish buffer address (data page gets shared)
	b.Mov(isa.R8, isa.R0)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R1, 5)
	b.Store(isa.R8, 0, isa.R1) // main touches the new page
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.LoadAbs(isa.R8, ptr)
	b.MovImm(isa.R1, 6)
	b.Store(isa.R8, 8, isa.R1) // worker touches it too -> shared
	b.Halt()
	prog := b.MustFinish()

	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Find the mmap VMA and check it ended up shared.
	var mmapBase uint64
	for _, v := range s.Process.VMAs() {
		if v.Kind == guest.VMAMmap && v.Base >= isa.MmapBase {
			mmapBase = v.Base
		}
	}
	if mmapBase == 0 {
		t.Fatal("no mmap VMA")
	}
	st, _ := s.SD.PageStateOf(mmapBase)
	if st != sharing.Shared {
		t.Errorf("runtime-mapped page state = %v, want shared", st)
	}
}
