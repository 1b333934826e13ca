package guest

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

func tinyProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("tiny")
	b.GlobalU64(0x42)
	b.Nop().Halt()
	return b.MustFinish()
}

func newProc(t *testing.T, prog *isa.Program) *Process {
	t.Helper()
	p, err := NewProcess(vm.NewMachine(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustMmap(t *testing.T, p *Process, length uint64, prot pagetable.Prot) uint64 {
	t.Helper()
	base, err := p.Mmap(length, prot)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func mustBrk(t *testing.T, p *Process, want uint64) uint64 {
	t.Helper()
	brk, err := p.GrowBrk(want)
	if err != nil {
		t.Fatal(err)
	}
	return brk
}

func TestLoaderLayout(t *testing.T) {
	p := newProc(t, tinyProgram(t))

	code := p.FindVMA(isa.CodeBase)
	if code == nil || code.Kind != VMACode {
		t.Fatal("code VMA missing")
	}
	if code.Prot != pagetable.ProtRO {
		t.Errorf("code prot = %v, want RO", code.Prot)
	}
	data := p.FindVMA(isa.DataBase)
	if data == nil || data.Kind != VMAData {
		t.Fatal("data VMA missing")
	}
	// Data image present: the global we wrote must be readable.
	pte, fault := p.PT.Walk(isa.DataBase, pagetable.AccessRead, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v := p.M.ReadU(pte.Frame, 0, 8); v != 0x42 {
		t.Errorf("data image = %#x, want 0x42", v)
	}

	main := p.Current()
	if main == nil || main.ID != 1 {
		t.Fatal("main thread not current")
	}
	if main.Stack == nil || main.Regs[isa.SP] != main.Stack.End()-8 {
		t.Error("stack pointer not initialized")
	}
}

// TestZeroGlobalsStayUnmaterialized: the loader maps the whole data
// segment but writes only its initialized prefix, and skips the prefix's
// all-zero pages. A word initialized after a 1 MiB zero global reads back
// through the page table, its page is the only data page with a page of
// its own, and every other data page still reads zero.
func TestZeroGlobalsStayUnmaterialized(t *testing.T) {
	b := isa.NewBuilder("sparse")
	big := b.Global(1<<20, vm.PageSize)
	word := b.GlobalU64(0xfeed_f00d)
	p := newProc(t, b.Nop().Halt().MustFinish())

	data := p.FindVMA(isa.DataBase)
	if data == nil || data.Pages != 257 || p.FindVMA(big+1<<20-1) != data {
		t.Fatalf("data VMA %v, want 257 pages covering the zero global", data)
	}
	pte, fault := p.PT.Walk(word, pagetable.AccessRead, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v := p.M.ReadU(pte.Frame, vm.PageOff(word), 8); v != 0xfeed_f00d {
		t.Errorf("initialized word reads %#x, want 0xfeedf00d", v)
	}
	for i := range data.Pages {
		f := data.Backing.Frame(i)
		wantOwn := data.Base+uint64(i)*vm.PageSize == vm.PageBase(word)
		if p.M.Materialized(f) != wantOwn {
			t.Errorf("data page %d: materialized %v, want %v", i, !wantOwn, wantOwn)
		}
		if v := p.M.ReadU(f, 0, 8); !wantOwn && v != 0 {
			t.Errorf("zero data page %d reads %#x", i, v)
		}
	}
}

func TestMmapMunmap(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	framesBefore := p.M.Frames()

	base := mustMmap(t, p, 3*vm.PageSize+1, pagetable.ProtRW)
	v := p.FindVMA(base)
	if v == nil || v.Pages != 4 {
		t.Fatalf("mmap VMA = %v, want 4 pages", v)
	}
	// Mapped and accessible.
	if _, fault := p.PT.Walk(base+2*vm.PageSize, pagetable.AccessWrite, true); fault != nil {
		t.Fatal(fault)
	}
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if p.FindVMA(base) != nil {
		t.Error("VMA survives munmap")
	}
	if p.M.Frames() != framesBefore {
		t.Errorf("frames leaked: %d -> %d", framesBefore, p.M.Frames())
	}
	if err := p.Munmap(base); err == nil {
		t.Error("double munmap succeeded")
	}
}

func TestBrkGrowth(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	if got := mustBrk(t, p, 0); got != isa.HeapBase {
		t.Errorf("initial brk = %#x, want %#x", got, isa.HeapBase)
	}
	nb := mustBrk(t, p, isa.HeapBase+5000)
	if nb != isa.HeapBase+2*vm.PageSize {
		t.Errorf("brk = %#x, want %#x", nb, isa.HeapBase+2*vm.PageSize)
	}
	// Heap pages mapped RW.
	if _, fault := p.PT.Walk(isa.HeapBase+vm.PageSize, pagetable.AccessWrite, true); fault != nil {
		t.Fatal(fault)
	}
	// Shrink is a no-op.
	if got := mustBrk(t, p, isa.HeapBase); got != nb {
		t.Errorf("shrink changed brk to %#x", got)
	}
}

func TestMapAliasSharesFrames(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	frames := p.M.Frames()
	base := mustMmap(t, p, 2*vm.PageSize, pagetable.ProtRW)
	orig := p.FindVMA(base)

	mirror := p.MapAlias(orig, 0x5000_0000_0000, pagetable.ProtRW, VMAMirror, "mirror")
	if mirror.Backing != orig.Backing {
		t.Fatal("alias has its own backing")
	}
	// A write through one mapping is visible through the other. Neither
	// page has been written, so the write is also the one that gives the
	// demand-zero frame its page: page 0 first through the original,
	// page 1 first through the mirror.
	pte1, _ := p.PT.Walk(base, pagetable.AccessWrite, true)
	p.M.WriteU(pte1.Frame, 8, 8, 0xabc)
	pte2, _ := p.PT.Walk(mirror.Base, pagetable.AccessRead, true)
	if v := p.M.ReadU(pte2.Frame, 8, 8); v != 0xabc {
		t.Errorf("mirror read = %#x, want 0xabc", v)
	}
	mpte, _ := p.PT.Walk(mirror.Base+vm.PageSize, pagetable.AccessWrite, true)
	p.M.WriteU(mpte.Frame, 24, 8, 0xdef)
	opte, _ := p.PT.Walk(base+vm.PageSize, pagetable.AccessRead, true)
	if v := p.M.ReadU(opte.Frame, 24, 8); v != 0xdef {
		t.Errorf("original read of the mirror's write = %#x, want 0xdef", v)
	}
	if v := p.M.ReadU(opte.Frame, 16, 8); v != 0 {
		t.Errorf("unwritten bytes of page 1 read %#x, want 0", v)
	}
	// Unmapping the original must not free shared frames.
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	pte2, fault := p.PT.Walk(mirror.Base, pagetable.AccessRead, true)
	if fault != nil {
		t.Fatalf("mirror unusable after original unmapped: %v", fault)
	}
	if v := p.M.ReadU(pte2.Frame, 8, 8); v != 0xabc {
		t.Error("mirror lost data after original unmapped")
	}
	// The munmap syscall cannot reach the alias; the runtime's own unmap
	// removes it and frees the frames.
	if err := p.Munmap(mirror.Base); err == nil {
		t.Error("munmap removed a mirror alias")
	}
	p.UnmapAlias(orig)
	if p.FindVMA(mirror.Base) != nil {
		t.Error("alias survives UnmapAlias")
	}
	if p.M.Frames() != frames {
		t.Errorf("frames leaked: %d -> %d", frames, p.M.Frames())
	}
}

func TestVMAListenerReplayAndEvents(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	var added, removed []string
	p.AddVMAListener(funcListener{
		add: func(v *VMA) { added = append(added, v.Name) },
		rm:  func(v *VMA) { removed = append(removed, v.Name) },
	})
	// Replay must include text, data and stack1.
	want := map[string]bool{"text": false, "data": false, "stack1": false}
	for _, n := range added {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("listener replay missed %s", n)
		}
	}
	base := mustMmap(t, p, vm.PageSize, pagetable.ProtRW)
	if added[len(added)-1] == "" {
		t.Error("mmap VMA not announced")
	}
	p.Munmap(base)
	if len(removed) != 1 {
		t.Errorf("removed events = %v", removed)
	}
}

type funcListener struct {
	add, rm func(*VMA)
}

func (f funcListener) VMAAdded(v *VMA)   { f.add(v) }
func (f funcListener) VMARemoved(v *VMA) { f.rm(v) }

func TestSchedulerRoundRobin(t *testing.T) {
	b := isa.NewBuilder("sched")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())

	t2 := p.newThread(0, 0, 1)
	t3 := p.newThread(0, 0, 1)

	// Current is main (1). Rotation: 1 -> 2 -> 3 -> 1 ...
	order := []TID{}
	for i := 0; i < 6; i++ {
		cur := p.Schedule()
		order = append(order, cur.ID)
	}
	want := []TID{2, 3, 1, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule order %v, want %v", order, want)
		}
	}
	if p.ContextSwitches == 0 {
		t.Error("context switches not counted")
	}
	_ = t2
	_ = t3
}

func TestContextSwitchHookFires(t *testing.T) {
	b := isa.NewBuilder("hook")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	var pairs [][2]TID
	p.Hooks.ContextSwitch = func(old, new TID) { pairs = append(pairs, [2]TID{old, new}) }
	p.newThread(0, 0, 1)
	p.Schedule()
	if len(pairs) != 1 || pairs[0] != [2]TID{1, 2} {
		t.Errorf("context switch hook pairs = %v", pairs)
	}
	// Scheduling the same single runnable thread must not fire the hook.
	p.threads[1].State = Done
	pairs = nil
	p.Schedule() // only thread 2 runnable; stays current
	for _, pr := range pairs {
		if pr[0] == pr[1] {
			t.Error("self-switch reported")
		}
	}
}

func TestLockContentionAndHandoff(t *testing.T) {
	b := isa.NewBuilder("locks")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()
	t2 := p.newThread(0, 0, 1)

	var acquired, released []TID
	p.Hooks.LockAcquired = func(th *Thread, id int64) { acquired = append(acquired, th.ID) }
	p.Hooks.LockReleased = func(th *Thread, id int64) { released = append(released, th.ID) }

	if !p.DoLock(main, 7) {
		t.Fatal("uncontended lock blocked")
	}
	if p.DoLock(t2, 7) {
		t.Fatal("contended lock acquired")
	}
	if t2.State != Blocked {
		t.Error("contender not blocked")
	}
	if p.LockContentions != 1 {
		t.Error("contention not counted")
	}
	p.DoUnlock(main, 7)
	if p.LockHolder(7) != t2.ID {
		t.Error("FIFO handoff failed")
	}
	if t2.State != Runnable {
		t.Error("contender not woken")
	}
	// Re-execution of the Lock instruction completes the acquire.
	if !p.DoLock(t2, 7) {
		t.Error("handed-off lock did not acquire on re-execution")
	}
	if len(acquired) != 2 || len(released) != 1 {
		t.Errorf("hook counts: acquired=%v released=%v", acquired, released)
	}
}

func TestUnlockNotHeldPanics(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	defer func() {
		if recover() == nil {
			t.Error("unlock of unheld lock did not panic")
		}
	}()
	p.DoUnlock(p.Current(), 99)
}

func TestThreadCreateJoinSyscalls(t *testing.T) {
	b := isa.NewBuilder("tj")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()

	// thread_create
	main.Regs[isa.R0] = 0 // entry PC
	main.Regs[isa.R1] = 77
	res, err := p.DoSyscall(main, isa.SysThreadCreate)
	if err != nil || res != SyscallDone {
		t.Fatalf("thread_create: %v %v", res, err)
	}
	child := p.Thread(TID(main.Regs[isa.R0]))
	if child == nil || child.Regs[isa.R0] != 77 {
		t.Fatal("child arg not passed")
	}

	// join on a live thread blocks...
	main.Regs[isa.R0] = uint64(child.ID)
	res, err = p.DoSyscall(main, isa.SysThreadJoin)
	if err != nil || res != SyscallBlocked {
		t.Fatalf("join: %v %v", res, err)
	}
	if main.State != Blocked {
		t.Error("joiner not blocked")
	}
	// ... and the child's exit wakes it.
	p.ExitThread(child)
	if main.State != Runnable {
		t.Error("joiner not woken by exit")
	}

	// join on a finished thread returns immediately.
	main.Regs[isa.R0] = uint64(child.ID)
	res, _ = p.DoSyscall(main, isa.SysThreadJoin)
	if res != SyscallDone {
		t.Error("join of done thread blocked")
	}
}

func TestBarrier(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()
	t2 := p.newThread(0, 0, 1)
	t3 := p.newThread(0, 0, 1)

	arrive := func(th *Thread) SyscallResult {
		th.Regs[isa.R0] = 5 // barrier id
		th.Regs[isa.R1] = 3 // parties
		res, err := p.DoSyscall(th, isa.SysBarrier)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := arrive(main); res != SyscallBlocked {
		t.Fatalf("first arrival: %v", res)
	}
	if res := arrive(t2); res != SyscallBlocked {
		t.Fatalf("second arrival: %v", res)
	}
	if res := arrive(t3); res != SyscallYield {
		t.Fatalf("last arrival: %v", res)
	}
	if main.State != Runnable || t2.State != Runnable {
		t.Error("barrier did not release waiters")
	}
	// Reusable: a second round works.
	if res := arrive(main); res != SyscallBlocked {
		t.Error("barrier not reusable")
	}
}

func TestWriteSyscallAndConsole(t *testing.T) {
	b := isa.NewBuilder("hello")
	msg := b.Global(5, 1)
	b.Init(msg, []byte("hello"))
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()
	main.Regs[isa.R0] = msg
	main.Regs[isa.R1] = 5
	if _, err := p.DoSyscall(main, isa.SysWrite); err != nil {
		t.Fatal(err)
	}
	if got := p.Console.String(); got != "hello" {
		t.Errorf("console = %q, want hello", got)
	}
	if main.Regs[isa.R0] != 5 {
		t.Error("write did not return length")
	}
}

func TestExitSyscall(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 3
	res, _ := p.DoSyscall(main, isa.SysExit)
	if res != SyscallExit || !p.Exited || p.ExitCode != 3 {
		t.Errorf("exit: res=%v exited=%v code=%d", res, p.Exited, p.ExitCode)
	}
	if p.Alive() {
		t.Error("process alive after exit")
	}
}

func TestDeadlockDetection(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	t2 := p.newThread(0, 0, 1)
	p.DoLock(main, 1)
	p.DoLock(t2, 2)
	// Cross-acquire: both block.
	p.DoLock(main, 2)
	p.DoLock(t2, 1)
	if !p.Deadlocked() {
		t.Error("deadlock not detected")
	}
}

func TestMultiThreadStacksAreDistinctPages(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	t2 := p.newThread(0, 0, 1)
	main := p.Current()
	if vm.PageNum(main.Stack.Base) == vm.PageNum(t2.Stack.Base) {
		t.Error("thread stacks share a page")
	}
}
