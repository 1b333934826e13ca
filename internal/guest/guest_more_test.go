package guest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

func TestSysYield(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	res, err := p.DoSyscall(main, isa.SysYield)
	if err != nil || res != SyscallYield {
		t.Errorf("yield: %v %v", res, err)
	}
}

// TestUnknownSyscall: a number that names no syscall fails with an
// error, including 9 and 10, the first two past SysYield.
func TestUnknownSyscall(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	for _, num := range []int64{9, 10, 999} {
		_, err := p.DoSyscall(p.Current(), num)
		if want := fmt.Sprintf("guest: unknown syscall %d", num); err == nil || err.Error() != want {
			t.Errorf("syscall %d: err = %v, want %q", num, err, want)
		}
	}
}

func TestMmapSyscallPath(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 2 * vm.PageSize
	main.Regs[isa.R1] = 0 // default protection
	res, err := p.DoSyscall(main, isa.SysMmap)
	if err != nil || res != SyscallDone {
		t.Fatalf("mmap: %v %v", res, err)
	}
	base := main.Regs[isa.R0]
	if v := p.FindVMA(base); v == nil || v.Prot != pagetable.ProtRW {
		t.Errorf("mmap result VMA: %v", v)
	}
	// munmap syscall path.
	main.Regs[isa.R0] = base
	if _, err := p.DoSyscall(main, isa.SysMunmap); err != nil {
		t.Fatal(err)
	}
	if p.FindVMA(base) != nil {
		t.Error("munmap syscall did not unmap")
	}
	// munmap of garbage errors.
	main.Regs[isa.R0] = 0xdead000
	if _, err := p.DoSyscall(main, isa.SysMunmap); err == nil {
		t.Error("bad munmap accepted")
	}
}

func TestBrkSyscallPath(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 0
	p.DoSyscall(main, isa.SysBrk)
	if main.Regs[isa.R0] != isa.HeapBase {
		t.Errorf("brk(0) = %#x", main.Regs[isa.R0])
	}
	main.Regs[isa.R0] = isa.HeapBase + 100
	p.DoSyscall(main, isa.SysBrk)
	if main.Regs[isa.R0] != isa.HeapBase+vm.PageSize {
		t.Errorf("brk grow = %#x", main.Regs[isa.R0])
	}
}

func TestWriteSyscallLengthGuard(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = isa.DataBase
	main.Regs[isa.R1] = 1 << 30 // absurd length
	if _, err := p.DoSyscall(main, isa.SysWrite); err == nil {
		t.Error("giant write accepted")
	}
}

// TestBrkSyscallLengthGuard: a break that wraps the address space, or
// that grows the heap by more than maxMapPages pages at once, fails the
// syscall and maps nothing.
func TestBrkSyscallLengthGuard(t *testing.T) {
	for _, want := range []uint64{
		^uint64(0),
		^uint64(0) - vm.PageSize + 2, // the rounded break wraps to 0
		isa.HeapBase + (maxMapPages+1)*vm.PageSize,
	} {
		p := newProc(t, tinyProgram(t))
		main := p.Current()
		vmas := len(p.VMAs())
		main.Regs[isa.R0] = want
		if _, err := p.DoSyscall(main, isa.SysBrk); err == nil {
			t.Errorf("brk(%#x) accepted", want)
		}
		if got := mustBrk(t, p, 0); got != isa.HeapBase || len(p.VMAs()) != vmas {
			t.Errorf("failed brk(%#x) moved the break to %#x or mapped a VMA", want, got)
		}
	}
}

// TestMmapSyscallLengthGuard: a length that wraps when rounded up to
// pages, or one past maxMapPages pages, fails the syscall and maps
// nothing.
func TestMmapSyscallLengthGuard(t *testing.T) {
	for _, length := range []uint64{
		^uint64(0),
		^uint64(0) - vm.PageSize + 2, // rounds up to 0
		maxMapPages*vm.PageSize + 1,
	} {
		p := newProc(t, tinyProgram(t))
		main := p.Current()
		vmas := len(p.VMAs())
		main.Regs[isa.R0] = length
		if _, err := p.DoSyscall(main, isa.SysMmap); err == nil {
			t.Errorf("mmap(%#x) accepted", length)
		}
		if len(p.VMAs()) != vmas || p.FindVMA(isa.MmapBase) != nil {
			t.Errorf("failed mmap(%#x) mapped a VMA", length)
		}
	}
}

func TestWriteSyscallFaultingBuffer(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 0x7777_0000_0000 // unmapped
	main.Regs[isa.R1] = 4
	if _, err := p.DoSyscall(main, isa.SysWrite); err == nil {
		t.Error("write from unmapped buffer succeeded")
	}
}

func TestThreadCreateBadEntry(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 1 << 30 // entry far out of range
	if _, err := p.DoSyscall(main, isa.SysThreadCreate); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

// TestJoinUnknownThread joins ids no thread has. TID(R0) truncates to
// int32, so the cases cover NoTID (0 and 1<<40), an id past the last
// thread (99) and negative ids (1<<31 and 1<<32-1). Each must fail the
// syscall, not panic, and leave the joiner runnable.
func TestJoinUnknownThread(t *testing.T) {
	for _, r0 := range []uint64{0, 99, 1 << 31, 1<<32 - 1, 1 << 40} {
		t.Run(fmt.Sprintf("%#x", r0), func(t *testing.T) {
			p := newProc(t, tinyProgram(t))
			p.newThread(0, 0, 1)
			main := p.Current()
			main.Regs[isa.R0] = r0
			if _, err := p.DoSyscall(main, isa.SysThreadJoin); err == nil {
				t.Errorf("join of thread %d accepted", TID(r0))
			}
			if main.State != Runnable || p.Current() != main {
				t.Errorf("failed join left the joiner %v, current %v", main.State, p.Current())
			}
			if th := p.Thread(TID(r0)); th != nil {
				t.Errorf("Thread(%d) = %v, want nil", TID(r0), th)
			}
		})
	}
}

// TestAliveUntilLastThreadHalts halts three threads out of creation
// order: Alive stays true until the last one halts and turns false with
// it, and Threads keeps listing every thread in creation order.
func TestAliveUntilLastThreadHalts(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	p.newThread(0, 0, 1)
	p.newThread(0, 0, 1)
	for i, id := range []TID{2, 1, 3} {
		if !p.Alive() {
			t.Fatalf("Alive false with %d of 3 threads halted", i)
		}
		p.ExitThread(p.Thread(id))
		if got := p.Threads(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("after thread %d halted, Threads = %v, want [1 2 3]", id, got)
		}
	}
	if p.Alive() {
		t.Error("Alive after every thread halted")
	}
	if p.Current() != nil || p.Deadlocked() {
		t.Errorf("finished process: current %v, deadlocked %v", p.Current(), p.Deadlocked())
	}
}

func TestVMAStringAndKinds(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	v := p.FindVMA(isa.CodeBase)
	s := v.String()
	if !strings.Contains(s, "code") || !strings.Contains(s, "text") {
		t.Errorf("VMA string: %q", s)
	}
	kinds := []VMAKind{VMACode, VMAData, VMAHeap, VMAStack, VMAMmap, VMAShadow, VMAMirror}
	for _, k := range kinds {
		if k.String() == "vma?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestThreadStateStrings(t *testing.T) {
	for _, s := range []ThreadState{Runnable, Blocked, Done} {
		if s.String() == "state?" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

func TestThreadsListing(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	p.newThread(0, 0, 1)
	p.newThread(0, 0, 1)
	ids := p.Threads()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Threads = %v", ids)
	}
	if p.Thread(2) == nil || p.Thread(9) != nil {
		t.Error("Thread lookup wrong")
	}
}

func TestOverlappingVMAPanics(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	defer func() {
		if recover() == nil {
			t.Error("overlapping VMA accepted")
		}
	}()
	p.MapShadow(isa.DataBase, 1, "overlap")
}

func TestKernelReadBytes(t *testing.T) {
	b := isa.NewBuilder("krb")
	addr := b.Global(16, 8)
	b.Init(addr, []byte("kernelread"))
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	got, fault := p.KernelReadBytes(1, addr, 10)
	if fault != nil || string(got) != "kernelread" {
		t.Errorf("KernelReadBytes = %q, %v", got, fault)
	}
	if _, fault := p.KernelReadBytes(1, 0xdead0000, 1); fault == nil {
		t.Error("kernel read of unmapped memory succeeded")
	}
}

func TestStackStride(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	t2 := p.newThread(0, 0, 1)
	main := p.Current()
	if t2.Stack.Base-main.Stack.Base != isa.StackStride {
		t.Errorf("stack stride = %#x", t2.Stack.Base-main.Stack.Base)
	}
}

func TestWakePanicsOnBadState(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	defer func() {
		if recover() == nil {
			t.Error("waking a runnable thread did not panic")
		}
	}()
	p.wake(1) // main is Runnable, not Blocked
}
