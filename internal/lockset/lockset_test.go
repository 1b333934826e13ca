package lockset

import (
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/stats"
)

func det() *Detector { return New(&stats.Clock{}) }

const x = uint64(0x2000)

func TestVirginToExclusiveNoWarning(t *testing.T) {
	d := det()
	d.OnAccess(1, 1, x, 8, true)
	d.OnAccess(1, 2, x, 8, true)
	d.OnAccess(1, 3, x, 8, false)
	if len(d.Warnings()) != 0 {
		t.Errorf("single-thread accesses warned: %v", d.Warnings())
	}
	if d.C.Refinements != 0 {
		t.Error("refinement ran in Exclusive state")
	}
}

func TestConsistentLockingNoWarning(t *testing.T) {
	d := det()
	for _, tid := range []guest.TID{1, 2, 3} {
		d.OnAcquire(tid, 7)
		d.OnAccess(tid, 1, x, 8, true)
		d.OnRelease(tid, 7)
	}
	if len(d.Warnings()) != 0 {
		t.Errorf("consistently locked variable warned: %v", d.Warnings())
	}
}

func TestInconsistentLockingWarns(t *testing.T) {
	d := det()
	d.OnAcquire(1, 7)
	d.OnAccess(1, 1, x, 8, true)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 8) // different lock — C(v) intersects to ∅
	d.OnAccess(2, 2, x, 8, true)
	d.OnRelease(2, 8)
	ws := d.Warnings()
	if len(ws) != 1 {
		t.Fatalf("warnings = %v, want 1", ws)
	}
	if ws[0].Addr != x || ws[0].TID != 2 || !ws[0].Write {
		t.Errorf("warning = %+v", ws[0])
	}
}

func TestUnlockedWriteWarns(t *testing.T) {
	d := det()
	d.OnAccess(1, 1, x, 8, true)
	d.OnAccess(2, 2, x, 8, true) // no locks at all
	if len(d.Warnings()) != 1 {
		t.Fatalf("warnings = %v", d.Warnings())
	}
}

func TestReadSharedNeverWarns(t *testing.T) {
	// Multiple readers without locks: Shared state, no report (Eraser's
	// read-shared tolerance).
	d := det()
	d.OnAccess(1, 1, x, 8, false)
	d.OnAccess(2, 2, x, 8, false)
	d.OnAccess(3, 3, x, 8, false)
	if len(d.Warnings()) != 0 {
		t.Errorf("read-only sharing warned: %v", d.Warnings())
	}
	// A subsequent unprotected write flips to SharedModified and warns.
	d.OnAccess(2, 4, x, 8, true)
	if len(d.Warnings()) != 1 {
		t.Errorf("write after read-sharing did not warn: %v", d.Warnings())
	}
}

func TestFalsePositiveOnHappensBeforeSync(t *testing.T) {
	// The classic LockSet false positive (§7.3): fork/join ordering is
	// invisible to the lockset discipline, so a perfectly ordered
	// unlocked write pair still warns. This differentiates LockSet from
	// FastTrack and is asserted as *expected* behaviour.
	d := det()
	d.OnAccess(1, 1, x, 8, true)
	d.OnFork(1, 2)
	d.OnAccess(2, 2, x, 8, true) // ordered by fork, but LockSet can't know
	if len(d.Warnings()) != 1 {
		t.Errorf("LockSet unexpectedly suppressed the fork-ordered report: %v", d.Warnings())
	}
}

func TestOneWarningPerVariable(t *testing.T) {
	d := det()
	for i := 0; i < 50; i++ {
		d.OnAccess(1, 1, x, 8, true)
		d.OnAccess(2, 2, x, 8, true)
	}
	if len(d.Warnings()) != 1 {
		t.Errorf("repeat violations not deduplicated: %d", len(d.Warnings()))
	}
}

func TestLocksetRefinementKeepsCommonLock(t *testing.T) {
	d := det()
	// Thread 1 holds {7,8}; thread 2 holds {7,9}: C(v)={7} — protected.
	d.OnAcquire(1, 7)
	d.OnAcquire(1, 8)
	d.OnAccess(1, 1, x, 8, true)
	d.OnRelease(1, 8)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 7)
	d.OnAcquire(2, 9)
	d.OnAccess(2, 2, x, 8, true)
	d.OnRelease(2, 9)
	d.OnRelease(2, 7)
	if len(d.Warnings()) != 0 {
		t.Errorf("common lock 7 not retained: %v", d.Warnings())
	}
	// Thread 3 holds only {9}: intersection empties — warn.
	d.OnAcquire(3, 9)
	d.OnAccess(3, 3, x, 8, true)
	if len(d.Warnings()) != 1 {
		t.Error("empty intersection did not warn")
	}
}

func TestBlockGranularityAndSpanning(t *testing.T) {
	d := det()
	d.OnAccess(1, 1, 0x2004, 8, true) // spans blocks 0x2000 and 0x2008
	d.OnAccess(2, 2, 0x2008, 8, true)
	ws := d.Warnings()
	if len(ws) != 1 || ws[0].Addr != 0x2008 {
		t.Errorf("spanning access refinement wrong: %v", ws)
	}
}

func TestAcquireReleaseIdempotent(t *testing.T) {
	d := det()
	d.OnAcquire(1, 5)
	d.OnAcquire(1, 5) // re-acquire: no duplicate
	if got := d.sets[d.heldBy(1)]; len(got) != 1 {
		t.Errorf("held = %v", got)
	}
	d.OnRelease(1, 5)
	d.OnRelease(1, 5) // double release: no-op
	if got := d.sets[d.heldBy(1)]; len(got) != 0 {
		t.Errorf("held after release = %v", got)
	}
}

func TestInterningSharesSets(t *testing.T) {
	d := det()
	d.OnAcquire(1, 1)
	d.OnAcquire(2, 1)
	if d.heldBy(1) != d.heldBy(2) {
		t.Error("identical locksets not interned")
	}
}

func TestLockDisciplineProperty(t *testing.T) {
	// Property: if every access to a variable happens under lock L
	// (possibly among others), no warning is ever produced.
	prop := func(ops []struct {
		Tid   uint8
		Extra uint8
		Write bool
	}) bool {
		d := det()
		for _, op := range ops {
			tid := guest.TID(op.Tid%4 + 1)
			d.OnAcquire(tid, 1) // the discipline lock
			extra := int64(op.Extra%3) + 2
			d.OnAcquire(tid, extra)
			d.OnAccess(tid, 9, x, 8, op.Write)
			d.OnRelease(tid, extra)
			d.OnRelease(tid, 1)
		}
		return len(d.Warnings()) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnprotectedWritePairAlwaysWarnsProperty(t *testing.T) {
	prop := func(a8, b8 uint8, blk uint16) bool {
		a := guest.TID(a8%6 + 1)
		b := guest.TID(b8%6 + 1)
		if a == b {
			return true
		}
		d := det()
		addr := uint64(blk) << BlockShift
		d.OnAccess(a, 1, addr, 8, true)
		d.OnAccess(b, 2, addr, 8, true)
		return len(d.Warnings()) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
