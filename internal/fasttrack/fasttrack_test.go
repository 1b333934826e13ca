package fasttrack

import (
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/stats"
	"repro/internal/vclock"
)

func det() *Detector {
	return New(&stats.Clock{})
}

const x = uint64(0x1000)

func TestNoRaceSequentialSameThread(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(1, 11, x, 8, false)
	d.OnAccess(1, 12, x, 8, true)
	if len(d.Races()) != 0 {
		t.Errorf("races in single-threaded trace: %v", d.Races())
	}
	if d.C.SameEpoch == 0 {
		t.Error("same-epoch fast path never taken")
	}
}

func TestWriteWriteRace(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(2, 20, x, 8, true)
	races := d.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v, want 1", races)
	}
	r := races[0]
	if r.Kind != WriteWrite || r.PriorTID != 1 || r.CurrentTID != 2 ||
		r.PriorPC != 10 || r.CurrentPC != 20 {
		t.Errorf("race = %+v", r)
	}
}

func TestWriteReadRace(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(2, 20, x, 8, false)
	races := d.Races()
	if len(races) != 1 || races[0].Kind != WriteRead {
		t.Fatalf("races = %v, want one write-read", races)
	}
}

func TestReadWriteRace(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, x, 8, false)
	d.OnAccess(2, 20, x, 8, true)
	races := d.Races()
	if len(races) != 1 || races[0].Kind != ReadWrite {
		t.Fatalf("races = %v, want one read-write", races)
	}
}

func TestLockOrderingSuppressesRace(t *testing.T) {
	d := det()
	// T1: lock; write; unlock.  T2: lock; write; unlock. Properly ordered.
	d.OnAcquire(1, 7)
	d.OnAccess(1, 10, x, 8, true)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 7)
	d.OnAccess(2, 20, x, 8, true)
	d.OnRelease(2, 7)
	if len(d.Races()) != 0 {
		t.Errorf("lock-ordered writes raced: %v", d.Races())
	}
}

func TestDistinctLocksDoNotOrder(t *testing.T) {
	d := det()
	d.OnAcquire(1, 7)
	d.OnAccess(1, 10, x, 8, true)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 8) // different lock!
	d.OnAccess(2, 20, x, 8, true)
	d.OnRelease(2, 8)
	if len(d.Races()) != 1 {
		t.Errorf("differently-locked writes did not race: %v", d.Races())
	}
}

func TestForkOrdersChildAfterParent(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, x, 8, true)
	d.OnFork(1, 2)
	d.OnAccess(2, 20, x, 8, true) // ordered after parent's write
	if len(d.Races()) != 0 {
		t.Errorf("fork edge missing: %v", d.Races())
	}
	// But a subsequent parent write races with nothing? The child's write
	// is unordered w.r.t. parent post-fork accesses.
	d.OnAccess(1, 11, x, 8, true)
	if len(d.Races()) != 1 {
		t.Errorf("parent/child post-fork writes should race: %v", d.Races())
	}
}

func TestJoinOrdersParentAfterChild(t *testing.T) {
	d := det()
	d.OnFork(1, 2)
	d.OnAccess(2, 20, x, 8, true)
	d.OnJoin(1, 2)
	d.OnAccess(1, 10, x, 8, true)
	if len(d.Races()) != 0 {
		t.Errorf("join edge missing: %v", d.Races())
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	d := det()
	d.OnFork(1, 2)
	// Phase 1: t1 writes x. Barrier. Phase 2: t2 writes x.
	d.OnAccess(1, 10, x, 8, true)
	d.OnBarrierWait(1, 5)
	d.OnBarrierWait(2, 5)
	d.OnBarrierRelease(1, 5)
	d.OnBarrierRelease(2, 5)
	d.OnAccess(2, 20, x, 8, true)
	if len(d.Races()) != 0 {
		t.Errorf("barrier did not order phases: %v", d.Races())
	}
	// Reuse in a second round still works.
	d.OnBarrierWait(1, 5)
	d.OnBarrierWait(2, 5)
	d.OnBarrierRelease(1, 5)
	d.OnBarrierRelease(2, 5)
	d.OnAccess(1, 30, x, 8, true)
	if len(d.Races()) != 0 {
		t.Errorf("barrier reuse broken: %v", d.Races())
	}
}

func TestConcurrentReadsNoFalsePositive(t *testing.T) {
	d := det()
	d.OnFork(1, 2)
	d.OnFork(1, 3)
	// Unordered concurrent reads are fine.
	d.OnAccess(1, 10, x, 8, false)
	d.OnAccess(2, 20, x, 8, false)
	d.OnAccess(3, 30, x, 8, false)
	if len(d.Races()) != 0 {
		t.Errorf("concurrent reads raced: %v", d.Races())
	}
	if d.C.ReadVCsAllocated == 0 {
		t.Error("concurrent reads did not promote to a read VC")
	}
	// A write racing with any of those reads is caught via the read VC.
	d.OnAccess(2, 21, x, 8, true)
	if len(d.Races()) == 0 {
		t.Error("write after concurrent reads not flagged")
	}
}

func TestReadSharedThenOrderedWriteIsClean(t *testing.T) {
	d := det()
	// Two lock-ordered readers, then a writer ordered after both.
	d.OnAcquire(1, 1)
	d.OnAccess(1, 10, x, 8, false)
	d.OnRelease(1, 1)
	d.OnAcquire(2, 1)
	d.OnAccess(2, 20, x, 8, false)
	d.OnRelease(2, 1)
	// Not concurrent: reads were lock-ordered, but FastTrack may still
	// hold an exclusive epoch. Now make genuinely concurrent reads:
	d.OnFork(1, 3)
	d.OnAccess(3, 30, x, 8, false)
	// Writer that has synchronized with everyone via the lock + join.
	d.OnJoin(2, 3)
	d.OnAcquire(2, 1)
	d.OnAccess(2, 21, x, 8, true)
	if len(d.Races()) != 0 {
		t.Errorf("ordered write after reads raced: %v", d.Races())
	}
}

func TestEightByteBlockGranularity(t *testing.T) {
	d := det()
	// Two threads writing *different* bytes of the same 8-byte block:
	// flagged (the paper's false-positive trade-off for packed data).
	d.OnAccess(1, 10, 0x1000, 1, true)
	d.OnAccess(2, 20, 0x1004, 1, true)
	if len(d.Races()) != 1 {
		t.Errorf("block-granularity collision not flagged: %v", d.Races())
	}
	// Different blocks: independent.
	d2 := det()
	d2.OnAccess(1, 10, 0x1000, 8, true)
	d2.OnAccess(2, 20, 0x1008, 8, true)
	if len(d2.Races()) != 0 {
		t.Errorf("distinct blocks raced: %v", d2.Races())
	}
}

func TestSpanningAccessChecksBothBlocks(t *testing.T) {
	d := det()
	d.OnAccess(1, 10, 0x1004, 8, true) // spans 0x1000 and 0x1008
	d.OnAccess(2, 20, 0x1000, 8, true)
	d.OnAccess(2, 21, 0x1008, 8, true)
	if len(d.Races()) != 2 {
		t.Errorf("spanning access races = %d, want 2", len(d.Races()))
	}
}

func TestRaceDeduplication(t *testing.T) {
	d := det()
	for i := 0; i < 100; i++ {
		d.OnAccess(1, 10, x, 8, true)
		d.OnAccess(2, 20, x, 8, true)
	}
	if len(d.Races()) != 2 {
		// 1-vs-2 and 2-vs-1 directions.
		t.Errorf("dedup failed: %d races", len(d.Races()))
	}
}

func TestMaxRacesCap(t *testing.T) {
	d := det()
	for i := uint64(0); i < maxRaces+7; i++ {
		d.OnAccess(1, 10, 0x1000+8*i, 8, true)
		d.OnAccess(2, 20, 0x1000+8*i, 8, true)
	}
	if len(d.Races()) != maxRaces || d.Dropped != 7 {
		t.Errorf("cap: %d stored, %d dropped, want %d and 7", len(d.Races()), d.Dropped, maxRaces)
	}
}

func TestCountersAndCosts(t *testing.T) {
	clk := &stats.Clock{}
	d := New(clk)
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(1, 10, x, 8, true) // same epoch
	if d.C.Writes != 2 || d.C.SameEpoch != 1 {
		t.Errorf("counters: %+v", d.C)
	}
	if clk.Cycles() == 0 {
		t.Error("analysis charged no cycles")
	}
	if d.C.Variables != 1 {
		t.Errorf("Variables = %d, want 1 (lazy)", d.C.Variables)
	}
}

func TestReleaseIncrementsClock(t *testing.T) {
	d := det()
	d.OnAcquire(1, 7)
	before := d.tvc(1).Get(1)
	d.OnRelease(1, 7)
	if d.tvc(1).Get(1) != before+1 {
		t.Error("release did not tick the thread clock")
	}
}

// Property: a totally ordered chain of accesses (every pair ordered through
// one lock) never produces a race, regardless of thread ids and kinds.
func TestNoFalsePositivesOnLockChains(t *testing.T) {
	prop := func(ops []struct {
		Tid   uint8
		Write bool
	}) bool {
		d := det()
		for i, op := range ops {
			tid := guest.TID(op.Tid%4 + 1)
			d.OnAcquire(tid, 1)
			d.OnAccess(tid, 100, x, 8, op.Write)
			d.OnRelease(tid, 1)
			_ = i
		}
		return len(d.Races()) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: two plain writes from different threads with no synchronization
// always race.
func TestUnorderedWritesAlwaysRace(t *testing.T) {
	prop := func(a8, b8 uint8, blk uint16) bool {
		a := guest.TID(a8%8 + 1)
		b := guest.TID(b8%8 + 1)
		if a == b {
			return true
		}
		d := det()
		addr := uint64(blk) << BlockShift
		d.OnAccess(a, 1, addr, 8, true)
		d.OnAccess(b, 2, addr, 8, true)
		return len(d.Races()) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEpochCompressionMatchesVC(t *testing.T) {
	// The detector must agree with a naive full-VC oracle on whether a
	// write after a chain of reads races — exercising promote/collapse.
	d := det()
	d.OnFork(1, 2)
	d.OnFork(1, 3)
	d.OnAccess(2, 1, x, 8, false)
	d.OnAccess(3, 2, x, 8, false)
	// Join only thread 2; thread 3's read still outstanding.
	d.OnJoin(1, 2)
	d.OnAccess(1, 3, x, 8, true)
	races := d.Races()
	if len(races) != 1 || races[0].Kind != ReadWrite || races[0].PriorTID != 3 {
		t.Errorf("read-VC write check wrong: %v", races)
	}
	_ = vclock.None
}
