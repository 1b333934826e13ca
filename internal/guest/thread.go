package guest

import (
	"fmt"
	"strconv"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	// Runnable threads are on the run queue (or currently executing).
	Runnable ThreadState = iota
	// Blocked threads wait on a lock, join or barrier.
	Blocked
	// Done threads have halted.
	Done
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return "state?"
}

// Thread is one guest thread. Register state lives here; the DBI engine
// mutates it while the thread executes.
type Thread struct {
	ID    TID
	State ThreadState
	Regs  [isa.NumRegs]uint64
	PC    isa.PC

	// Stack is the thread's private stack VMA.
	Stack *VMA

	// joinWaiters are threads blocked in SysThreadJoin on this thread.
	joinWaiters []TID
	// resumeOnExit is the thread blocked at this thread's spawn point
	// under SchedSerialDFS (spawn runs the child to completion, like a
	// call); NoTID otherwise.
	resumeOnExit TID

	// Instructions counts retired instructions (for stats).
	Instructions uint64
}

// String identifies the thread.
func (t *Thread) String() string { return fmt.Sprintf("thread %d (%s)", t.ID, t.State) }

// newThread allocates a TID and a private stack, initializes registers and
// enqueues the thread.
func (p *Process) newThread(entry isa.PC, arg uint64, creator TID) *Thread {
	id := TID(len(p.threads))
	stackBase := isa.StackBase + uint64(id-1)*isa.StackStride
	stack := p.addVMA(stackBase, int(isa.StackSize/vm.PageSize), pagetable.ProtRW,
		VMAStack, "stack"+strconv.Itoa(int(id)))
	t := &Thread{ID: id, State: Runnable, PC: entry, Stack: stack}
	t.Regs[isa.R0] = arg
	t.Regs[isa.TP] = stack.Base
	t.Regs[isa.SP] = stack.End() - 8
	p.threads = append(p.threads, t)
	p.runq = append(p.runq, id)
	p.live++
	if p.Hooks.ThreadStarted != nil {
		p.Hooks.ThreadStarted(t, creator)
	}
	return t
}

// Thread returns the thread with the given id, or nil when no thread has
// it (NoTID, a negative id or one not yet created).
func (p *Process) Thread(id TID) *Thread {
	if id < 0 || int(id) >= len(p.threads) {
		return nil
	}
	return p.threads[id]
}

// Threads returns all thread ids in creation order.
func (p *Process) Threads() []TID {
	out := make([]TID, 0, len(p.threads)-1)
	for id := TID(1); int(id) < len(p.threads); id++ {
		out = append(out, id)
	}
	return out
}

// Current returns the currently scheduled thread, or nil when the process
// has no runnable work.
func (p *Process) Current() *Thread { return p.Thread(p.current) }

// LiveThreads returns the number of threads not yet Done. It changes only
// where the ThreadStarted and ThreadExited hooks fire.
func (p *Process) LiveThreads() int { return p.live }

// Alive reports whether any thread can still make progress.
func (p *Process) Alive() bool { return !p.Exited && p.live > 0 }

// Deadlocked reports whether live threads exist but none are runnable.
func (p *Process) Deadlocked() bool {
	if !p.Alive() {
		return false
	}
	for _, t := range p.threads[1:] {
		if t.State == Runnable {
			return false
		}
	}
	return true
}

// Schedule picks the next runnable thread (FIFO round-robin) and makes it
// current, firing the ContextSwitch hook on a change. It returns the newly
// current thread, or nil if nothing is runnable.
func (p *Process) Schedule() *Thread {
	old := p.current
	// Rotate the current thread (if still runnable) to the back.
	if cur := p.Thread(old); cur != nil && cur.State == Runnable {
		p.runq = append(p.runq, old)
	}
	var next *Thread
	for len(p.runq) > 0 {
		cand := p.Thread(p.runq[0])
		p.runq = popFront(p.runq)
		if cand != nil && cand.State == Runnable {
			next = cand
			break
		}
	}
	if next == nil {
		p.current = NoTID
		return nil
	}
	p.current = next.ID
	if next.ID != old {
		p.ContextSwitches++
		if p.Hooks.ContextSwitch != nil {
			p.Hooks.ContextSwitch(old, next.ID)
		}
	}
	return next
}

// popFront removes a FIFO's head by shifting the rest down in place. The
// backing array then never slides forward, so pushes keep reusing it: a
// queue never holds more entries than there are threads.
func popFront(q []TID) []TID {
	return q[:copy(q, q[1:])]
}

// block marks the current thread blocked and schedules another. The caller
// must have queued the thread on some wait list.
func (p *Process) block(t *Thread) {
	t.State = Blocked
	p.Schedule()
}

// wake makes a blocked thread runnable again.
func (p *Process) wake(id TID) {
	t := p.Thread(id)
	if t == nil || t.State != Blocked {
		panic(fmt.Sprintf("guest: wake of thread %d, which is not blocked", id))
	}
	t.State = Runnable
	p.runq = append(p.runq, id)
	// If nothing was current (everyone was blocked), schedule immediately.
	if p.current == NoTID {
		p.Schedule()
	}
}

// ExitThread halts t, wakes joiners, and reschedules if t was current.
func (p *Process) ExitThread(t *Thread) {
	t.State = Done
	p.live--
	if p.Hooks.ThreadExited != nil {
		p.Hooks.ThreadExited(t)
	}
	if t.resumeOnExit != NoTID {
		// Serial-DFS spawn return: the parent resumes at the point after
		// the spawn (no happens-before join edge yet — only the explicit
		// join makes one).
		p.wake(t.resumeOnExit)
		t.resumeOnExit = NoTID
	}
	for _, w := range t.joinWaiters {
		p.wake(w)
		if p.Hooks.ThreadJoined != nil {
			p.Hooks.ThreadJoined(w, t)
		}
	}
	t.joinWaiters = nil
	if p.current == t.ID {
		p.Schedule()
	}
}
