package guest

import (
	"runtime"
	"testing"

	"repro/internal/isa"
)

// TestLockHandoffNoAllocs pins that the guest's FIFOs reuse their arrays:
// a contended lock handed back and forth between two threads, with the
// scheduler rotating them, allocates nothing in steady state. Popping by
// reslicing the head away would slide each queue's window forward and
// reallocate it every few pushes.
func TestLockHandoffNoAllocs(t *testing.T) {
	b := isa.NewBuilder("handoff")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()
	t2 := p.newThread(0, 0, main.ID)
	other := map[TID]*Thread{main.ID: t2, t2.ID: main}

	handoff := func() {
		for i := 0; i < 64; i++ {
			cur := p.Current()
			next := other[cur.ID]
			p.DoLock(cur, 7)
			if p.DoLock(next, 7) { // contends and blocks
				t.Fatal("contended lock acquired")
			}
			p.DoUnlock(cur, 7) // FIFO handoff wakes next
			if !p.DoLock(next, 7) {
				t.Fatal("handed-off lock not acquired on re-execution")
			}
			p.DoUnlock(next, 7)
			p.Schedule() // quantum expiry rotates the threads
		}
	}
	handoff()
	switches := p.ContextSwitches
	if n := testing.AllocsPerRun(20, handoff); n != 0 {
		t.Errorf("steady-state lock handoff allocates %.1f objects per 64 handoffs, want 0", n)
	}
	if p.ContextSwitches == switches || p.LockContentions == 0 {
		t.Fatal("no contention or context switch — the guard is vacuous")
	}
}

// TestThreadStartHeapBytes pins demand-zero thread stacks: creating a
// thread maps a 16-page stack, but pages nobody writes cost no frame.
// Averaged over 64 threads whose stacks are never written, thread creation
// allocates under 16 KiB of heap per thread; backing each stack page with
// its own frame up front costs more than 64 KiB.
func TestThreadStartHeapBytes(t *testing.T) {
	b := isa.NewBuilder("spawn")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	main := p.Current()
	const threads = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < threads; i++ {
		p.newThread(0, 0, main.ID)
	}
	runtime.ReadMemStats(&after)
	perThread := float64(after.TotalAlloc-before.TotalAlloc) / threads
	t.Logf("thread creation allocates %.0f bytes per thread", perThread)
	if perThread >= 16<<10 {
		t.Errorf("thread creation allocates %.0f bytes per thread, want under %d", perThread, 16<<10)
	}
}
