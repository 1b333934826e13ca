package dbi

import (
	"errors"
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

func run(t *testing.T, prog *isa.Program, tool Tool, cfg Config) (*Engine, *Result) {
	t.Helper()
	p, err := guest.NewProcess(vm.NewMachine(), prog)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p, nil, tool, &stats.Clock{}, cfg)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return e, res
}

func TestArithmeticAndControlFlow(t *testing.T) {
	b := isa.NewBuilder("arith")
	sum := b.GlobalU64(0)
	// sum = Σ i for i in [0,10)
	b.MovImm(isa.R1, 0) // acc
	b.LoopN(isa.R2, 10, func(b *isa.Builder) {
		b.Add(isa.R1, isa.R1, isa.R2)
	})
	b.StoreAbs(sum, isa.R1)
	b.Halt()
	prog := b.MustFinish()

	_, res := run(t, prog, nil, DefaultConfig())
	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	_ = p
	// Re-run to inspect memory via a fresh engine exposing the process.
	p2, _ := guest.NewProcess(vm.NewMachine(), prog)
	e2 := New(p2, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	got, fault := e2.Mem.Load(1, sum, 8, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
	if res.Counters.Instructions == 0 || res.Counters.MemRefs != 1 {
		t.Errorf("counters: %+v", res.Counters)
	}
}

func TestLoadStoreIndirect(t *testing.T) {
	b := isa.NewBuilder("mem")
	arr := b.GlobalArray(8)
	b.MovImm(isa.R1, int64(arr))
	// a[i] = i*3 for i in 0..7, then sum them.
	b.LoopN(isa.R2, 8, func(b *isa.Builder) {
		b.MovImm(isa.R3, 3)
		b.Mul(isa.R4, isa.R2, isa.R3)
		b.Shl(isa.R5, isa.R2, 3)
		b.Add(isa.R6, isa.R1, isa.R5)
		b.Store(isa.R6, 0, isa.R4)
	})
	b.MovImm(isa.R7, 0)
	b.LoopN(isa.R2, 8, func(b *isa.Builder) {
		b.Shl(isa.R5, isa.R2, 3)
		b.Add(isa.R6, isa.R1, isa.R5)
		b.Load(isa.R4, isa.R6, 0)
		b.Add(isa.R7, isa.R7, isa.R4)
	})
	res := b.GlobalU64(0)
	b.StoreAbs(res, isa.R7)
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Mem.Load(1, res, 8, true)
	if got != 84 { // 3*(0+..+7) = 84
		t.Errorf("sum = %d, want 84", got)
	}
	if e.C.MemRefs != 8+8+1 {
		t.Errorf("MemRefs = %d, want 17", e.C.MemRefs)
	}
}

func TestMultiThreadProducerConsumer(t *testing.T) {
	b := isa.NewBuilder("threads")
	flag := b.GlobalU64(0)
	data := b.GlobalU64(0)

	// main: spawn worker, wait for flag under lock, read data.
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5) // R0 = child tid
	b.Mov(isa.R9, isa.R0)
	b.Label("spin")
	b.Lock(1)
	b.LoadAbs(isa.R1, flag)
	b.Unlock(1)
	b.BrImm(isa.EQ, isa.R1, 0, "spin")
	b.LoadAbs(isa.R2, data)
	b.ThreadJoin(isa.R9)
	out := b.GlobalU64(0)
	b.StoreAbs(out, isa.R2)
	b.Halt()

	b.Label("worker")
	b.MovImm(isa.R1, 1234)
	b.StoreAbs(data, isa.R1)
	b.Lock(1)
	b.MovImm(isa.R1, 1)
	b.StoreAbs(flag, isa.R1)
	b.Unlock(1)
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Mem.Load(1, out, 8, true)
	if got != 1234 {
		t.Errorf("consumer read %d, want 1234", got)
	}
	if p.ContextSwitches == 0 {
		t.Error("no context switches in a blocking two-thread program")
	}
}

func TestBarrierSynchronizesPhases(t *testing.T) {
	const workers = 4
	b := isa.NewBuilder("barrier")
	cells := b.GlobalArray(workers)
	sum := b.GlobalU64(0)

	// main spawns workers that each store (tid-arg+1) into their cell and
	// hit a barrier; main also participates, then sums after the barrier.
	for i := 0; i < workers; i++ {
		b.MovImm(isa.R5, int64(i))
		b.ThreadCreate("worker", isa.R5)
	}
	b.Barrier(9, workers+1)
	b.MovImm(isa.R7, 0)
	b.LoopN(isa.R2, workers, func(b *isa.Builder) {
		b.Shl(isa.R5, isa.R2, 3)
		b.MovImm(isa.R6, int64(cells))
		b.Add(isa.R6, isa.R6, isa.R5)
		b.Load(isa.R4, isa.R6, 0)
		b.Add(isa.R7, isa.R7, isa.R4)
	})
	b.StoreAbs(sum, isa.R7)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	b.Label("worker")
	// R0 = index. cell[index] = index+1
	b.Shl(isa.R1, isa.R0, 3)
	b.MovImm(isa.R2, int64(cells))
	b.Add(isa.R2, isa.R2, isa.R1)
	b.AddImm(isa.R3, isa.R0, 1)
	b.Store(isa.R2, 0, isa.R3)
	b.Barrier(9, workers+1)
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.Mem.Load(1, sum, 8, true)
	if got != 1+2+3+4 {
		t.Errorf("sum = %d, want 10", got)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit code = %d", res.ExitCode)
	}
}

func TestWriteSyscallThroughEngine(t *testing.T) {
	b := isa.NewBuilder("hello")
	msg := b.Global(3, 1)
	b.Init(msg, []byte("hi\n"))
	b.MovImm(isa.R0, int64(msg))
	b.MovImm(isa.R1, 3)
	b.Syscall(isa.SysWrite)
	b.Halt()
	_, res := run(t, b.MustFinish(), nil, DefaultConfig())
	if res.Console != "hi\n" {
		t.Errorf("console = %q", res.Console)
	}
}

func TestDeadlockReported(t *testing.T) {
	b := isa.NewBuilder("deadlock")
	// main takes lock 1 then 2; worker takes 2 then 1, with a barrier to
	// force the interleaving.
	b.Lock(1)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Barrier(3, 2)
	b.Lock(2)
	b.Halt()
	b.Label("w")
	b.Lock(2)
	b.Barrier(3, 2)
	b.Lock(1)
	b.Halt()
	prog := b.MustFinish()
	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

// planTool instruments every memory instruction, counting callbacks.
type planTool struct {
	calls int
	addrs []uint64
}

func (pt *planTool) Instrument(pc isa.PC, in isa.Instr) *Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return &Plan{PreAccess: func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
		pt.calls++
		pt.addrs = append(pt.addrs, addr)
		return addr
	}}
}

func TestToolSeesEveryMemoryAccess(t *testing.T) {
	b := isa.NewBuilder("tool")
	g := b.GlobalU64(0)
	b.MovImm(isa.R1, 7)
	b.LoopN(isa.R2, 5, func(b *isa.Builder) {
		b.StoreAbs(g, isa.R1)
		b.LoadAbs(isa.R3, g)
	})
	b.Halt()
	tool := &planTool{}
	e, res := run(t, b.MustFinish(), tool, DefaultConfig())
	if tool.calls != 10 {
		t.Errorf("tool calls = %d, want 10", tool.calls)
	}
	if res.Counters.InstrumentedExecs != 10 {
		t.Errorf("InstrumentedExecs = %d, want 10", res.Counters.InstrumentedExecs)
	}
	for _, a := range tool.addrs {
		if a != g {
			t.Errorf("tool saw address %#x, want %#x", a, g)
		}
	}
	_ = e
}

// redirectTool bounces accesses to a second address.
type redirectTool struct{ from, to uint64 }

func (rt *redirectTool) Instrument(pc isa.PC, in isa.Instr) *Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return &Plan{PreAccess: func(_ guest.TID, _ isa.PC, addr uint64, _ uint8, _ bool) uint64 {
		if addr == rt.from {
			return rt.to
		}
		return addr
	}}
}

func TestToolRedirection(t *testing.T) {
	b := isa.NewBuilder("redir")
	a := b.GlobalU64(0)
	bb := b.GlobalU64(0)
	b.MovImm(isa.R1, 99)
	b.StoreAbs(a, isa.R1) // redirected to bb
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, &redirectTool{from: a, to: bb}, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	va, _ := e.Mem.Load(1, a, 8, true)
	vb, _ := e.Mem.Load(1, bb, 8, true)
	if va != 0 || vb != 99 {
		t.Errorf("a=%d b=%d, want 0/99 (redirect)", va, vb)
	}
}

func TestFlushRebuildsBlocks(t *testing.T) {
	b := isa.NewBuilder("flush")
	g := b.GlobalU64(0)
	b.Label("top")
	b.LoadAbs(isa.R1, g)
	b.AddImm(isa.R1, isa.R1, 1)
	b.StoreAbs(g, isa.R1)
	b.BrImm(isa.LT, isa.R1, 3, "top")
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	built := e.C.BlocksBuilt
	if built == 0 {
		t.Fatal("no blocks built")
	}
	n := e.Flush(prog.Labels["top"])
	if n == 0 {
		t.Fatal("flush removed nothing")
	}
	if e.C.BlocksFlushed != uint64(n) {
		t.Error("flush count mismatch")
	}
}

func TestFaultHandlerRetry(t *testing.T) {
	// A program storing to an unmapped address; the handler maps memory…
	// here we instead verify fatal vs retry policy with a tool that
	// redirects after the first fault.
	b := isa.NewBuilder("fault")
	g := b.GlobalU64(0)
	bad := uint64(0x7000_0000_0000) // unmapped
	b.MovImm(isa.R1, 5)
	b.StoreAbs(bad, isa.R1)
	b.LoadAbs(isa.R2, g)
	b.Halt()
	prog := b.MustFinish()

	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	var handled int
	var redirect bool
	tool := &redirectTool{from: bad, to: g}
	e := New(p, nil, instrumentIf(func() bool { return redirect }, tool), &stats.Clock{}, DefaultConfig())
	e.OnFault = func(t *guest.Thread, pc isa.PC, in isa.Instr, f *hypervisor.Fault) FaultOutcome {
		handled++
		redirect = true
		e.Flush(pc)
		return FaultRetry
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("retry path failed: %v", err)
	}
	if handled != 1 {
		t.Errorf("handler invoked %d times, want 1", handled)
	}
	v, _ := e.Mem.Load(1, g, 8, true)
	if v != 5 {
		t.Errorf("redirected store wrote %d, want 5", v)
	}
	if e.C.Retries != 1 {
		t.Errorf("Retries = %d, want 1", e.C.Retries)
	}
}

// instrumentIf wraps a tool, active only when cond() is true at build time.
type condTool struct {
	cond func() bool
	t    Tool
}

func instrumentIf(cond func() bool, t Tool) Tool { return &condTool{cond, t} }

func (c *condTool) Instrument(pc isa.PC, in isa.Instr) *Plan {
	if !c.cond() {
		return nil
	}
	return c.t.Instrument(pc, in)
}

func TestUnhandledFaultIsFatal(t *testing.T) {
	b := isa.NewBuilder("segv")
	b.MovImm(isa.R1, 1)
	b.StoreAbs(0x7000_0000_0000, isa.R1)
	b.Halt()
	p, _ := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err == nil {
		t.Fatal("unmapped store did not kill the run")
	}
}

func TestTracePromotionAndLinking(t *testing.T) {
	b := isa.NewBuilder("hot")
	b.LoopN(isa.R1, 500, func(b *isa.Builder) { b.Nop() })
	b.Halt()
	e, _ := run(t, b.MustFinish(), nil, DefaultConfig())
	if e.C.TraceDispatches == 0 {
		t.Error("hot loop never dispatched via trace")
	}
	if e.C.LinkedDispatches == 0 {
		t.Error("no linked dispatches")
	}
	if e.C.BlocksBuilt > 10 {
		t.Errorf("loop rebuilt blocks: %d", e.C.BlocksBuilt)
	}
}

func TestQuantumSwitchesThreads(t *testing.T) {
	// Two CPU-bound threads with no synchronization must interleave.
	b := isa.NewBuilder("preempt")
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("spin", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.LoopN(isa.R1, 2000, func(b *isa.Builder) { b.Nop() })
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("spin")
	b.LoopN(isa.R1, 2000, func(b *isa.Builder) { b.Nop() })
	b.Halt()
	prog := b.MustFinish()
	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.ContextSwitches < 10 {
		t.Errorf("ContextSwitches = %d, want many (preemption)", p.ContextSwitches)
	}
}

func TestRuntimeTouchFiresPerCodePage(t *testing.T) {
	b := isa.NewBuilder("touch")
	b.LoopN(isa.R1, 3, func(b *isa.Builder) { b.Nop() })
	b.Halt()
	prog := b.MustFinish()
	p, _ := guest.NewProcess(vm.NewMachine(), prog)
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	var touched []uint64
	e.RuntimeTouch = func(tid guest.TID, addr uint64) { touched = append(touched, addr) }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(touched) == 0 {
		t.Fatal("block builder never touched code pages")
	}
	for _, a := range touched {
		if a < isa.CodeBase || a >= isa.CodeBase+prog.CodeBytes()+4096 {
			t.Errorf("touched non-code address %#x", a)
		}
	}
}

// TestOnQuantumErrorAborts pins the runaway guard that core's MaxCycles
// budget rests on: an OnQuantum error stops an infinite-loop program at
// the next scheduling quantum and is returned unchanged.
func TestOnQuantumErrorAborts(t *testing.T) {
	b := isa.NewBuilder("inf")
	b.Label("x")
	b.Jmp("x")
	b.Halt()
	p, _ := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	stop := errors.New("runaway")
	e.OnQuantum = func() error {
		if e.C.Instructions > 10_000 {
			return stop
		}
		return nil
	}
	if _, err := e.Run(); !errors.Is(err, stop) {
		t.Fatalf("Run = %v, want the OnQuantum error", err)
	}
}
