// Package dbi is the dynamic binary instrumentation engine — the
// simulator's DynamoRIO (paper §2.1). It executes guest programs through a
// code cache of basic blocks:
//
//   - blocks are discovered lazily, cached by start PC, and may start at
//     any PC (so execution can resume at a faulting instruction after its
//     block was flushed and rebuilt); a block slices per-PC tables built
//     once per engine and its struct comes from an engine-owned slab, and
//     builds recycle flushed blocks, so no build allocates per block;
//   - consecutive blocks are linked directly, and hot blocks are promoted
//     to traces, both of which reduce dispatch cost;
//   - a Tool inspects every instruction at block-build time and may attach
//     an instrumentation Plan to memory-referencing instructions;
//   - when a user access faults, the engine invokes the master signal
//     handler (§3.4); the handler may flush blocks and request a retry,
//     which rebuilds the block at the faulting PC with new instrumentation.
//
// The engine also drives the guest scheduler: threads run for a quantum of
// instructions and are switched round-robin, with blocking syscalls and
// contended locks ending quanta early.
package dbi

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Memory is the engine's user-mode data access path. Under Aikido it is
// the *hypervisor.Hypervisor itself, whose Load and Store probe the
// thread's host TLB first; in every other mode it is the engine's direct
// page-table walker. execMem calls the hypervisor and the walker without
// an interface call, and any other Memory, such as a wrapper installed
// after New, through the interface.
type Memory interface {
	Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault)
	Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault
}

// Plan is the instrumentation a Tool attaches to one memory-referencing
// instruction at block-build time.
type Plan struct {
	// PreAccess runs with the resolved effective address before the
	// access and returns the address at which the access must actually be
	// performed — the mirror address when the tool redirects (§3.3.2), or
	// addr unchanged. The tool does its own analysis work and cost
	// accounting inside this callback.
	PreAccess func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64
}

// Tool decides instrumentation at block-build time. AikidoSD (wrapping a
// shared-data analysis) and the full-instrumentation baseline both
// implement it. A nil Tool runs uninstrumented.
type Tool interface {
	// Instrument returns the plan for the instruction at pc, or nil for
	// no instrumentation.
	Instrument(pc isa.PC, in isa.Instr) *Plan
}

// FaultOutcome is the master signal handler's decision.
type FaultOutcome uint8

// Fault outcomes.
const (
	// FaultFatal kills the run (a genuine segmentation fault).
	FaultFatal FaultOutcome = iota
	// FaultRetry re-executes the faulting instruction (after the handler
	// adjusted protections and/or flushed blocks).
	FaultRetry
)

// FaultHandler is the master signal handler invoked for faulting user
// accesses (DynamoRIO's, modified per §3.4 to route Aikido faults to the
// sharing detector).
type FaultHandler func(t *guest.Thread, pc isa.PC, in isa.Instr, f *hypervisor.Fault) FaultOutcome

// Counters aggregates engine statistics.
type Counters struct {
	// Instructions retired, across all threads.
	Instructions uint64
	// MemRefs is the number of retired memory-referencing instructions —
	// column 1 of Table 2 ("Instrs. Referencing Memory").
	MemRefs uint64
	// InstrumentedExecs counts retired executions of instructions that
	// carried a Plan — column 2 of Table 2 ("Instrumented Instrs.").
	InstrumentedExecs uint64
	// BlocksBuilt / BlocksFlushed / BlockLookups / LinkedDispatches /
	// TraceDispatches describe code-cache behaviour.
	BlocksBuilt      uint64
	BlocksFlushed    uint64
	BlockLookups     uint64
	LinkedDispatches uint64
	TraceDispatches  uint64
	// Faults counts user-access faults that reached the master handler.
	Faults uint64
	// Retries counts faults resolved with FaultRetry.
	Retries uint64
	// Quanta counts scheduling quanta executed.
	Quanta uint64
}

// block is one code-cache entry.
type block struct {
	start isa.PC
	// instrs slices Program.Code, which nothing writes after compilation;
	// plans slices the engine's per-PC plan table the same way.
	instrs []isa.Instr
	plans  []*Plan // parallel to instrs; nil = uninstrumented
	end    isa.PC  // first PC past the block
	// next links the fall-through/jump successor once observed.
	next *block
	// execs counts executions for trace promotion; trace marks promotion.
	execs uint64
	trace bool
}

// Config parameterizes the engine.
type Config struct {
	// Quantum is the scheduling quantum in retired instructions.
	Quantum uint64
	// ChargeDBI enables code-cache cost accounting. Native baseline runs
	// keep it off so that "native time" is pure instruction cost.
	ChargeDBI bool
}

const (
	// maxBlock caps basic-block length in instructions.
	maxBlock = 48
	// slabBlocks is how many block structs one slab allocation holds.
	slabBlocks = 32
	// traceThreshold promotes a block to the trace cache after this many
	// executions.
	traceThreshold = 64
)

// DefaultConfig returns the standard engine configuration.
func DefaultConfig() Config {
	return Config{Quantum: 1000, ChargeDBI: true}
}

// Engine executes one guest process.
type Engine struct {
	P     *guest.Process
	Mem   Memory
	Tool  Tool
	Clock *stats.Clock
	Cfg   Config

	// OnFault is the master signal handler; nil treats all faults as
	// fatal.
	OnFault FaultHandler
	// RuntimeTouch, if set, is called once per code page the block
	// builder reads, modelling DynamoRIO's own accesses to (possibly
	// Aikido-protected) application pages (§3.4).
	RuntimeTouch func(tid guest.TID, addr uint64)
	// OnRetire, if set, observes every retired instruction with the
	// thread's (pre-update for sources, post-update for destinations)
	// register file — the hook register-dataflow tools (taint tracking)
	// build on. Nil costs nothing.
	OnRetire func(t *guest.Thread, pc isa.PC, in isa.Instr)
	// OnQuantum, if set, runs before every scheduling quantum; a non-nil
	// error aborts the run with that error. It serves the simulated-cycle
	// budget only (internal/core wires its Config.MaxCycles check here):
	// it sits on the existing scheduling boundary, fires a deterministic
	// number of times per run, and costs one nil check when unset — so
	// calibrated baselines are untouched.
	OnQuantum func() error

	// blocks is the code cache as a direct PC-indexed table: slot pc
	// holds the block starting at pc (guest PCs are dense instruction
	// indices, so the table is exact — dispatch is one bounds-checked
	// load, with no hashing and no collisions).
	blocks []*block
	// maxBlockLen is the longest block built so far; Flush only needs to
	// scan start PCs within that window below the flushed PC.
	maxBlockLen int
	// plans holds each PC's Plan as the Tool last returned it; build
	// writes a block's span and the block slices it. Overlapping blocks
	// share their common PCs' entries. That is safe because a tool changes
	// a PC's plan only together with a Flush of every block containing it
	// (sharing's instrument and uninstrumentAll), and build runs only from
	// dispatch: a block flushed while it runs (the epoch sweep flushes
	// from inside PreAccess) reads its entries unchanged until it returns.
	plans []*Plan
	// slab holds block structs not yet handed out; build takes one when
	// the free list is empty, so first builds allocate once per
	// slabBlocks blocks.
	slab []block
	// free holds flushed blocks for build to recycle, so a re-JIT
	// allocates nothing. For the reason given at plans, a flushed block is
	// never reused before the next dispatch.
	free []*block

	C Counters

	prev *block // last executed block, for linking
}

// New creates an engine over a loaded process, charging its events to
// clock. mem may be nil, in which case a direct guest-page-table walker is
// used (native runs).
func New(p *guest.Process, mem Memory, tool Tool, clock *stats.Clock, cfg Config) *Engine {
	e := &Engine{
		P: p, Mem: mem, Tool: tool, Clock: clock, Cfg: cfg,
		blocks: make([]*block, len(p.Prog.Code)),
		plans:  make([]*Plan, len(p.Prog.Code)),
	}
	if mem == nil {
		e.Mem = directMemory{p}
	}
	return e
}

// directMemory walks the guest page table with no hypervisor (native mode).
// An access that straddles a page end is split the way Hypervisor.Access
// splits it: both pages are walked before either half is performed.
type directMemory struct{ p *guest.Process }

func (d directMemory) Load(_ guest.TID, addr uint64, size uint8, _ bool) (uint64, *hypervisor.Fault) {
	pte, fault := d.p.PT.Walk(addr, pagetable.AccessRead, true)
	if fault != nil {
		return 0, &hypervisor.Fault{Addr: addr, Access: pagetable.AccessRead, Unmapped: fault.Unmapped}
	}
	off := vm.PageOff(addr)
	if off+uint64(size) <= vm.PageSize {
		return d.p.M.ReadU(pte.Frame, off, size), nil
	}
	hi, hfault := d.nextPage(addr, pagetable.AccessRead)
	if hfault != nil {
		return 0, hfault
	}
	return d.p.M.ReadSplit(pte.Frame, hi, off, size), nil
}

func (d directMemory) Store(_ guest.TID, addr uint64, size uint8, val uint64, _ bool) *hypervisor.Fault {
	pte, fault := d.p.PT.Walk(addr, pagetable.AccessWrite, true)
	if fault != nil {
		return &hypervisor.Fault{Addr: addr, Access: pagetable.AccessWrite, Unmapped: fault.Unmapped}
	}
	off := vm.PageOff(addr)
	if off+uint64(size) <= vm.PageSize {
		d.p.M.WriteU(pte.Frame, off, size, val)
		return nil
	}
	hi, hfault := d.nextPage(addr, pagetable.AccessWrite)
	if hfault != nil {
		return hfault
	}
	d.p.M.WriteSplit(pte.Frame, hi, off, size, val)
	return nil
}

// nextPage walks the page after addr's, for the second half of a
// straddling access. A fault there reports that page's base address.
func (d directMemory) nextPage(addr uint64, a pagetable.Access) (vm.FrameID, *hypervisor.Fault) {
	next := vm.PageBase(addr) + vm.PageSize
	pte, fault := d.p.PT.Walk(next, a, true)
	if fault != nil {
		return vm.NoFrame, &hypervisor.Fault{Addr: next, Access: a, Unmapped: fault.Unmapped}
	}
	return pte.Frame, nil
}

// Flush removes every cached block containing pc. The next execution
// rebuilds them, picking up new instrumentation — the "delete all cached
// basic blocks that contain the faulting instruction and re-JIT" step of
// §3.3.2. Deleting a block also requires unlinking it: every direct link
// into a flushed block is severed, exactly as DynamoRIO unlinks deleted
// fragments (a dangling link would keep dispatching the stale,
// uninstrumented copy).
func (e *Engine) Flush(pc isa.PC) int {
	// A block containing pc starts at most maxBlockLen-1 slots below pc,
	// so only that window of the table needs scanning. This call's
	// victims go on the free list; flushed is their tail of it.
	mark := len(e.free)
	lo := 0
	if e.maxBlockLen > 0 && int(pc) >= e.maxBlockLen {
		lo = int(pc) - e.maxBlockLen + 1
	}
	hi := int(pc)
	if last := len(e.blocks) - 1; hi > last {
		hi = last
	}
	for start := lo; start <= hi; start++ {
		b := e.blocks[start]
		if b != nil && pc >= b.start && pc < b.end {
			e.blocks[start] = nil
			e.free = append(e.free, b)
			if e.Cfg.ChargeDBI {
				e.Clock.Charge(stats.FlushBlock)
			}
			e.C.BlocksFlushed++
		}
	}
	flushed := e.free[mark:]
	if len(flushed) > 0 {
		// Sever every direct link into a flushed block, exactly as
		// DynamoRIO unlinks deleted fragments.
		dead := func(n *block) bool {
			for _, f := range flushed {
				if n == f {
					return true
				}
			}
			return false
		}
		for _, b := range e.blocks {
			if b != nil && b.next != nil && dead(b.next) {
				b.next = nil
			}
		}
	}
	e.prev = nil // the in-flight link source may be a flushed block
	return len(flushed)
}

// lookup fetches or builds the block starting at pc, which must lie
// inside the program.
func (e *Engine) lookup(tid guest.TID, pc isa.PC) *block {
	if b := e.blocks[pc]; b != nil {
		return b
	}
	b := e.build(tid, pc)
	e.blocks[pc] = b
	return b
}

// build makes the block of instructions [pc, end), consulting the tool for
// instrumentation; it recycles a flushed block when one is free. Building
// reads the application's code pages, which may be Aikido-protected —
// RuntimeTouch lets the system model DynamoRIO's unprotect/reprotect dance
// (§3.4).
func (e *Engine) build(tid guest.TID, pc isa.PC) *block {
	prog := e.P.Prog
	n := 0
	for n < maxBlock && int(pc)+n < len(prog.Code) {
		op := prog.At(pc + isa.PC(n)).Op
		n++
		// Blocks end at control transfers and at instructions that may
		// block or switch context (syscalls, locks), as in DynamoRIO.
		if op.IsBranch() || op == isa.Syscall || op == isa.Lock || op == isa.Unlock {
			break
		}
	}
	var b *block
	if k := len(e.free) - 1; k >= 0 {
		b, e.free[k] = e.free[k], nil
		e.free = e.free[:k]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]block, slabBlocks)
		}
		b, e.slab = &e.slab[0], e.slab[1:]
	}
	end := pc + isa.PC(n)
	*b = block{start: pc, end: end,
		instrs: prog.Code[pc:end], plans: e.plans[pc:end]}
	if e.Tool != nil {
		for i, in := range b.instrs {
			b.plans[i] = e.Tool.Instrument(pc+isa.PC(i), in)
		}
	}
	if e.RuntimeTouch != nil {
		// One touch per code page the builder read.
		first := prog.AddrOf(b.start)
		last := prog.AddrOf(b.end - 1)
		for a := first &^ 0xfff; a <= last; a += 1 << 12 {
			e.RuntimeTouch(tid, a)
		}
	}
	if e.Cfg.ChargeDBI {
		e.Clock.Charge(stats.BuildBlockBase + stats.BuildPerInstr*uint64(len(b.instrs)))
	}
	if len(b.instrs) > e.maxBlockLen {
		e.maxBlockLen = len(b.instrs)
	}
	e.C.BlocksBuilt++
	return b
}

// Result summarizes a completed run.
type Result struct {
	Cycles   uint64
	ExitCode int64
	Counters Counters
	Console  string
}

// Run executes the process to completion (all threads halted or SysExit).
func (e *Engine) Run() (*Result, error) {
	p := e.P
	for p.Alive() {
		if e.OnQuantum != nil {
			if err := e.OnQuantum(); err != nil {
				return nil, err
			}
		}
		t := p.Current()
		if t == nil {
			if p.Deadlocked() {
				return nil, fmt.Errorf("dbi: deadlock: all live threads blocked")
			}
			return nil, fmt.Errorf("dbi: no runnable thread but process alive")
		}
		if err := e.runQuantum(t); err != nil {
			return nil, err
		}
		if p.Exited {
			break
		}
		// Rotate if the thread is still current and runnable (quantum
		// expiry); blocking/halting already rescheduled inside guest.
		if p.Current() == t && t.State == guest.Runnable {
			p.Schedule()
		}
	}
	return &Result{
		Cycles:   e.Clock.Cycles(),
		ExitCode: p.ExitCode,
		Counters: e.C,
		Console:  p.Console.String(),
	}, nil
}

// runQuantum executes t until its quantum expires, it blocks, halts, or the
// process exits.
func (e *Engine) runQuantum(t *guest.Thread) error {
	e.C.Quanta++
	budget := e.Cfg.Quantum
	for budget > 0 && t.State == guest.Runnable && !e.P.Exited {
		b, err := e.dispatch(t)
		if err != nil {
			return err
		}
		done, err := e.execBlock(t, b, &budget)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return nil
}

// dispatch fetches the block at t.PC, charging the appropriate dispatch
// cost (trace < linked < lookup) and maintaining links and trace promotion.
// A PC outside the program is an error. Program.Valid bounds the entry and
// every branch target, so only code that falls through its last
// instruction gets there; with no block to run, the thread could never
// retire an instruction or end its quantum.
func (e *Engine) dispatch(t *guest.Thread) (*block, error) {
	var b *block
	switch {
	case e.prev != nil && e.prev.next != nil && e.prev.next.start == t.PC:
		b = e.prev.next
		if b.trace {
			e.C.TraceDispatches++
			if e.Cfg.ChargeDBI {
				e.Clock.Charge(stats.DispatchTrace)
			}
		} else {
			e.C.LinkedDispatches++
			if e.Cfg.ChargeDBI {
				e.Clock.Charge(stats.DispatchLinked)
			}
		}
	default:
		if int(t.PC) >= len(e.blocks) {
			return nil, fmt.Errorf("dbi: thread %d pc %d: outside the program (%d instructions)",
				t.ID, t.PC, len(e.blocks))
		}
		b = e.lookup(t.ID, t.PC)
		e.C.BlockLookups++
		if e.Cfg.ChargeDBI {
			e.Clock.Charge(stats.DispatchBlock)
		}
		if e.prev != nil && e.prev.next == nil {
			e.prev.next = b // direct-link the observed successor
		}
	}
	b.execs++
	if !b.trace && b.execs >= traceThreshold {
		b.trace = true
	}
	e.prev = b
	return b, nil
}

// regMask masks a register field into the register file. Program.Valid
// rejects every field ≥ isa.NumRegs, so on any program the engine runs the
// mask changes no index; it lets the compiler drop the bounds check from
// each register access in execBlock.
const regMask = isa.NumRegs - 1

// execBlock runs instructions of b starting at t.PC until the block ends,
// the quantum expires, or the thread blocks/halts/faults. It returns
// done=true when the engine should end the quantum.
//
// This loop is the interpreter's floor, so an instruction costs only what
// its semantics need:
//   - every opcode, the four memory opcodes included, dispatches through
//     one switch;
//   - the quantum becomes a stop index once per entry, so no instruction
//     tests or decrements a budget;
//   - the PC lives in the loop index, and t.PC is written only where code
//     outside the loop can read it: before a memory access (its plan, the
//     memory path and the fault handler), before the OnRetire hook, at a
//     lock, syscall or halt (the guest's hooks), and on every exit;
//   - registers are indexed through regs, masked with regMask.
//
// Accounting is batched too: instructions [base, idx) have retired but are
// not yet counted, and settle counts them in one step at every exit or
// interposition point instead of updating four memory locations per
// instruction. A plan callback runs mid-batch: it may read the clock, and
// sees it without the pending native-instruction charge; it must not read
// Thread.Instructions or Engine.C (see settle).
func (e *Engine) execBlock(t *guest.Thread, b *block, budget *uint64) (bool, error) {
	p := e.P
	regs := &t.Regs
	observe := e.OnRetire != nil
	idx := int(t.PC - b.start)
	// The stop index is len(instrs): the block's end, or the instruction
	// at which the quantum expires.
	instrs := b.instrs
	if *budget < uint64(len(instrs)-idx) {
		instrs = instrs[:idx+int(*budget)]
	}
	base := idx
	var pendMem uint64
	for ; idx < len(instrs); idx++ {
		// Instructions are read through a pointer into the (immutable
		// after build) block body: the loop copies the fields it needs,
		// not the whole struct, per retired instruction.
		in := &instrs[idx]
		switch in.Op {
		case isa.Nop:
		case isa.MovImm:
			regs[in.Rd&regMask] = uint64(in.Imm)
		case isa.Mov:
			regs[in.Rd&regMask] = regs[in.Rs&regMask]
		case isa.Add:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] + regs[in.Rt&regMask]
		case isa.AddImm:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] + uint64(in.Imm)
		case isa.Sub:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] - regs[in.Rt&regMask]
		case isa.Mul:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] * regs[in.Rt&regMask]
		case isa.Div:
			if d := regs[in.Rt&regMask]; d == 0 {
				regs[in.Rd&regMask] = 0
			} else {
				regs[in.Rd&regMask] = regs[in.Rs&regMask] / d
			}
		case isa.And:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] & regs[in.Rt&regMask]
		case isa.Or:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] | regs[in.Rt&regMask]
		case isa.Xor:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] ^ regs[in.Rt&regMask]
		case isa.Shl:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] << (uint64(in.Imm) & 63)
		case isa.Shr:
			regs[in.Rd&regMask] = regs[in.Rs&regMask] >> (uint64(in.Imm) & 63)

		case isa.Load, isa.Store, isa.LoadAbs, isa.StoreAbs:
			pc := b.start + isa.PC(idx)
			t.PC = pc
			retired, err := e.execMem(t, pc, in, b.plans[idx])
			if err != nil {
				e.settle(t, budget, idx-base, pendMem)
				return true, err
			}
			if !retired {
				// Fault + retry: the handler may have flushed this
				// block; re-dispatch at the same PC, which t.PC still
				// holds.
				e.settle(t, budget, idx-base, pendMem)
				return false, nil
			}
			pendMem++

		case isa.Jmp:
			e.retireEnd(t, budget, idx+1-base, pendMem, b.start+isa.PC(idx), in)
			t.PC = in.Target
			return false, nil
		case isa.Br:
			pc := b.start + isa.PC(idx)
			e.retireEnd(t, budget, idx+1-base, pendMem, pc, in)
			if in.Cond.Eval(regs[in.Rs&regMask], regs[in.Rt&regMask]) {
				t.PC = in.Target
			} else {
				t.PC = pc + 1
			}
			return false, nil
		case isa.BrImm:
			pc := b.start + isa.PC(idx)
			e.retireEnd(t, budget, idx+1-base, pendMem, pc, in)
			if in.Cond.Eval(regs[in.Rs&regMask], uint64(in.Imm)) {
				t.PC = in.Target
			} else {
				t.PC = pc + 1
			}
			return false, nil

		case isa.Lock:
			// PC advances only once the lock is held; a blocked thread
			// re-executes the Lock after the FIFO handoff. DoLock can
			// block the thread (context-switch hooks), so pending
			// accounting settles first.
			pc := b.start + isa.PC(idx)
			e.settle(t, budget, idx-base, pendMem)
			t.PC = pc
			if !p.DoLock(t, in.Imm) {
				return true, nil
			}
			e.retireEnd(t, budget, 1, 0, pc, in)
			t.PC = pc + 1
			return false, nil
		case isa.Unlock:
			pc := b.start + isa.PC(idx)
			e.settle(t, budget, idx-base, pendMem)
			t.PC = pc
			p.DoUnlock(t, in.Imm)
			e.retireEnd(t, budget, 1, 0, pc, in)
			t.PC = pc + 1
			return false, nil

		case isa.Syscall:
			// PC advances before the syscall: blocked threads resume
			// after it.
			pc := b.start + isa.PC(idx)
			e.retireEnd(t, budget, idx+1-base, pendMem, pc, in)
			t.PC = pc + 1
			e.Clock.Charge(stats.Syscall)
			res, err := p.DoSyscall(t, in.Imm)
			if err != nil {
				return true, fmt.Errorf("dbi: thread %d pc %d: %w", t.ID, pc, err)
			}
			switch res {
			case guest.SyscallDone:
				return false, nil
			case guest.SyscallBlocked, guest.SyscallYield, guest.SyscallExit:
				return true, nil
			}
			return false, nil

		case isa.Halt:
			pc := b.start + isa.PC(idx)
			e.retireEnd(t, budget, idx+1-base, pendMem, pc, in)
			t.PC = pc
			p.ExitThread(t)
			return true, nil

		default:
			pc := b.start + isa.PC(idx)
			e.settle(t, budget, idx-base, pendMem)
			t.PC = pc
			return true, fmt.Errorf("dbi: thread %d pc %d: bad opcode %v", t.ID, pc, in.Op)
		}
		if observe {
			pc := b.start + isa.PC(idx)
			e.settle(t, budget, idx+1-base, pendMem)
			base, pendMem = idx+1, 0
			t.PC = pc
			e.observeRetire(t, pc, in)
		}
	}
	t.PC = b.start + isa.PC(idx)
	e.settle(t, budget, idx-base, pendMem)
	// Stopping short of the block's end means the quantum expired.
	return idx < len(b.instrs), nil
}

// settle counts n retired instructions, mem of them memory references,
// against the thread, the engine, the clock and the quantum budget. The
// batch equals per-instruction updates for everything but plan callbacks,
// which run between two settle points. They may read the clock, and see
// it without the pending NativeInstr × n charge; sharing's PreAccess
// checks its epoch deadline against that reading, which is deterministic.
// No callback may read Thread.Instructions or Engine.C.
func (e *Engine) settle(t *guest.Thread, budget *uint64, n int, mem uint64) {
	if n == 0 {
		return
	}
	*budget -= uint64(n)
	t.Instructions += uint64(n)
	e.C.Instructions += uint64(n)
	e.C.MemRefs += mem
	e.Clock.Charge(stats.NativeInstr * uint64(n))
}

// observeRetire fires the OnRetire hook (taint tracking and similar
// register-dataflow tools); kept out of line because most runs have no
// observer.
//
//go:noinline
func (e *Engine) observeRetire(t *guest.Thread, pc isa.PC, in *isa.Instr) {
	e.OnRetire(t, pc, *in)
}

// retireEnd settles n retired instructions, mem of them memory
// references, the last of them the block-ending instruction in at pc
// (a branch, lock, syscall or halt), and fires the OnRetire hook for it
// with t.PC at pc.
func (e *Engine) retireEnd(t *guest.Thread, budget *uint64, n int, mem uint64, pc isa.PC, in *isa.Instr) {
	e.settle(t, budget, n, mem)
	if e.OnRetire != nil {
		t.PC = pc
		e.observeRetire(t, pc, in)
	}
}

// execMem executes one memory-referencing instruction, with t.PC at pc. It
// reports whether the access retired; false means it faulted and the
// handler asked for a retry.
func (e *Engine) execMem(t *guest.Thread, pc isa.PC, in *isa.Instr, plan *Plan) (bool, error) {
	regs := &t.Regs
	// Classify once; the opcode predicates would otherwise be re-evaluated
	// up to four times per access.
	write := in.Op.IsWrite()
	// Effective address.
	var addr uint64
	if in.Op.IsDirect() {
		addr = uint64(in.Imm)
	} else {
		addr = regs[in.Rs&regMask] + uint64(in.Imm)
	}
	target := addr
	if plan != nil {
		if plan.PreAccess != nil {
			target = plan.PreAccess(t.ID, pc, addr, in.Size, write)
		}
		e.C.InstrumentedExecs++
	}

	// The hypervisor and the direct walker are called concretely, with no
	// interface call. The switch reads Mem at every access, so a wrapper
	// that replaces Mem after New still sees every call.
	var fault *hypervisor.Fault
	var val uint64
	switch m := e.Mem.(type) {
	case *hypervisor.Hypervisor:
		if write {
			fault = m.Store(t.ID, target, in.Size, regs[in.Rt&regMask], true)
		} else {
			val, fault = m.Load(t.ID, target, in.Size, true)
		}
	case directMemory:
		if write {
			fault = m.Store(t.ID, target, in.Size, regs[in.Rt&regMask], true)
		} else {
			val, fault = m.Load(t.ID, target, in.Size, true)
		}
	default:
		if write {
			fault = m.Store(t.ID, target, in.Size, regs[in.Rt&regMask], true)
		} else {
			val, fault = m.Load(t.ID, target, in.Size, true)
		}
	}
	if fault == nil {
		if !write {
			regs[in.Rd&regMask] = val
		}
		return true, nil
	}

	// Fault path: master signal handler.
	e.C.Faults++
	e.Clock.Charge(stats.Fault)
	if e.OnFault == nil {
		return false, fmt.Errorf("dbi: thread %d pc %d: unhandled %v", t.ID, pc, fault)
	}
	switch e.OnFault(t, pc, *in, fault) {
	case FaultRetry:
		e.C.Retries++
		return false, nil
	default:
		return false, fmt.Errorf("dbi: thread %d pc %d: fatal %v", t.ID, pc, fault)
	}
}
