package taint_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/taint"
	"repro/internal/vm"
)

// layout builds a program skeleton with a source page, a sink page and a
// scratch page, returning their bases.
type layout struct {
	b                  *isa.Builder
	src, sink, scratch uint64
}

func newLayout(name string) *layout {
	b := isa.NewBuilder(name)
	src := b.Global(vm.PageSize, vm.PageSize)
	sink := b.Global(vm.PageSize, vm.PageSize)
	scratch := b.Global(vm.PageSize, vm.PageSize)
	return &layout{b: b, src: src, sink: sink, scratch: scratch}
}

// run hosts the tracker in a fully instrumented core.System, marks the
// source and sink pages between NewSystem and Run, and runs the program.
func (l *layout) run(t *testing.T) *taint.Tracker {
	t.Helper()
	prog, err := l.b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(taint.Kind))
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Analysis(taint.Kind).(*taint.Tracker)
	tr.AddSource(l.src, vm.PageSize)
	tr.AddSink(l.sink, vm.PageSize)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDirectFlow(t *testing.T) {
	l := newLayout("direct")
	b := l.b
	b.LoadAbs(isa.R4, l.src)   // taint R4
	b.StoreAbs(l.sink, isa.R4) // tainted → sink
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 1 {
		t.Fatalf("flows = %v, want 1", tr.Flows())
	}
}

func TestArithmeticPropagation(t *testing.T) {
	l := newLayout("arith")
	b := l.b
	b.LoadAbs(isa.R4, l.src)
	b.MovImm(isa.R5, 17)
	b.Add(isa.R6, isa.R4, isa.R5) // tainted ∨ clean = tainted
	b.Shl(isa.R6, isa.R6, 3)
	b.Xor(isa.R6, isa.R6, isa.R5)
	b.StoreAbs(l.sink, isa.R6)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 1 {
		t.Fatalf("flows = %v, want 1 (taint survives arithmetic)", tr.Flows())
	}
}

func TestOverwriteClears(t *testing.T) {
	l := newLayout("clear")
	b := l.b
	b.LoadAbs(isa.R4, l.src)
	b.MovImm(isa.R4, 0) // constant overwrite launders the register
	b.StoreAbs(l.sink, isa.R4)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 0 {
		t.Fatalf("flows = %v, want none after constant overwrite", tr.Flows())
	}
}

func TestFlowThroughMemory(t *testing.T) {
	l := newLayout("memflow")
	b := l.b
	b.LoadAbs(isa.R4, l.src)
	b.StoreAbs(l.scratch+64, isa.R4) // park tainted value in scratch
	b.MovImm(isa.R4, 0)              // launder the register
	b.LoadAbs(isa.R5, l.scratch+64)  // reload: memory shadow keeps the taint
	b.StoreAbs(l.sink, isa.R5)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 1 {
		t.Fatalf("flows = %v, want 1 (taint survives a memory round-trip)", tr.Flows())
	}
	if tr.C.TaintedLoads < 2 || tr.C.TaintedStores < 2 {
		t.Errorf("counters too low: %+v", tr.C)
	}
}

func TestMemoryOverwriteClears(t *testing.T) {
	l := newLayout("memclear")
	b := l.b
	b.LoadAbs(isa.R4, l.src)
	b.StoreAbs(l.scratch+8, isa.R4) // taint scratch
	b.MovImm(isa.R5, 3)
	b.StoreAbs(l.scratch+8, isa.R5) // clean store untaints it
	b.LoadAbs(isa.R6, l.scratch+8)
	b.StoreAbs(l.sink, isa.R6)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 0 {
		t.Fatalf("flows = %v, want none after clean overwrite", tr.Flows())
	}
}

func TestCrossThreadFlow(t *testing.T) {
	l := newLayout("crossthread")
	b := l.b
	// main: load tainted word, pass it as the spawn argument.
	b.LoadAbs(isa.R4, l.src)
	b.ThreadCreate("child", isa.R4)
	b.Mov(isa.R9, isa.R0)
	b.ThreadJoin(isa.R9)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	// child: R0 = spawn argument (tainted) → sink.
	b.Label("child")
	b.StoreAbs(l.sink, isa.R0)
	b.Halt()
	tr := l.run(t)
	if len(tr.Flows()) != 1 {
		t.Fatalf("flows = %v, want 1 (taint crosses thread creation)", tr.Flows())
	}
	if tr.Flows()[0].TID != 2 {
		t.Errorf("flow attributed to thread %d, want the child (2)", tr.Flows()[0].TID)
	}
}

func TestUntaintedProgramSilent(t *testing.T) {
	l := newLayout("clean2")
	b := l.b
	b.MovImm(isa.R4, 1234)
	b.StoreAbs(l.sink, isa.R4)
	b.LoadAbs(isa.R5, l.scratch)
	b.StoreAbs(l.sink+8, isa.R5)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 0 || tr.C.TaintedLoads != 0 {
		t.Fatalf("spurious taint: flows=%v counters=%+v", tr.Flows(), tr.C)
	}
}

func TestSyscallResultUntainted(t *testing.T) {
	l := newLayout("sysclean")
	b := l.b
	b.LoadAbs(isa.R0, l.src) // R0 tainted...
	b.MovImm(isa.R1, 0)
	b.Syscall(isa.SysBrk) // ...but the syscall result overwrites it
	b.StoreAbs(l.sink, isa.R0)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	tr := l.run(t)
	if len(tr.Flows()) != 0 {
		t.Fatalf("flows = %v, want none (syscall result is fresh)", tr.Flows())
	}
}

func TestFlowString(t *testing.T) {
	f := taint.Flow{TID: 3, PC: 9, Addr: 0x2000, Size: 8}
	s := f.String()
	for _, want := range []string{"0x2000", "thread 3", "pc 9"} {
		if !strings.Contains(s, want) {
			t.Errorf("flow string %q missing %q", s, want)
		}
	}
}
