package core

import (
	"testing"

	"repro/internal/isa"
)

// runWith runs prog under mode with the named analyses at a fine quantum.
func runWith(t *testing.T, prog *isa.Program, mode Mode, analyses ...string) *Result {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.Analyses = analyses
	cfg.Quantum = 50
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("%v/%v: %v", mode, analyses, err)
	}
	return res
}

func TestLockSetOverAikidoFindsDisciplineViolation(t *testing.T) {
	prog := sharedProgram(60, false) // unlocked shared counter
	res := runWith(t, prog, ModeAikidoFastTrack, "lockset")
	if len(warningsOf(res)) == 0 {
		t.Fatal("LockSet over Aikido missed the unlocked counter")
	}
	if len(racesOf(res)) != 0 {
		t.Error("FastTrack races reported by a LockSet run")
	}
	if lsOf(res).Refinements == 0 {
		t.Error("no lockset refinements recorded")
	}
}

func TestLockSetCleanOnLockedProgram(t *testing.T) {
	// Strict discipline: EVERY access to the counter (including main's
	// final read-out) holds the lock. Note sharedProgram would not do:
	// its post-join read is unlocked — ordered, so fine for FastTrack,
	// but an Eraser violation (see
	// TestLockSetFlagsFalsePositiveThatFastTrackAvoids).
	b := isa.NewBuilder("disciplined")
	ctr := b.Global(4096, 4096)
	body := func(b *isa.Builder) {
		b.Lock(1)
		b.LoadAbs(isa.R3, ctr)
		b.AddImm(isa.R3, isa.R3, 1)
		b.StoreAbs(ctr, isa.R3)
		b.Unlock(1)
	}
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.LoopN(isa.R2, 60, body)
	b.ThreadJoin(isa.R9)
	b.Lock(1)
	b.LoadAbs(isa.R3, ctr)
	b.Unlock(1)
	b.Halt()
	b.Label("worker")
	b.LoopN(isa.R2, 60, body)
	b.Halt()
	prog := b.MustFinish()

	for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
		res := runWith(t, prog, mode, "lockset")
		if len(warningsOf(res)) != 0 {
			t.Errorf("%v: disciplined counter warned: %v", mode, warningsOf(res)[0])
		}
	}
}

func TestLockSetFullAndAikidoAgree(t *testing.T) {
	prog := sharedProgram(60, false)
	full := runWith(t, prog, ModeFastTrackFull, "lockset")
	aikido := runWith(t, prog, ModeAikidoFastTrack, "lockset")
	if len(warningsOf(full)) == 0 || len(warningsOf(aikido)) == 0 {
		t.Fatalf("warnings: full=%d aikido=%d", len(warningsOf(full)), len(warningsOf(aikido)))
	}
	fa := map[uint64]bool{}
	for _, w := range warningsOf(full) {
		fa[w.Addr] = true
	}
	for _, w := range warningsOf(aikido) {
		if !fa[w.Addr] {
			t.Errorf("aikido-only warning at %#x", w.Addr)
		}
	}
}

func TestLockSetFlagsFalsePositiveThatFastTrackAvoids(t *testing.T) {
	// Fork/join-ordered unlocked writes: FastTrack (happens-before) is
	// silent; LockSet warns — the §7.3 precision difference, reproduced.
	b := isa.NewBuilder("hbonly")
	x := b.Global(4096, 4096)
	warm := b.Global(4096, 4096)
	// Warm the page to shared first so Aikido's first-access window does
	// not mask the comparison: both threads touch `warm` on the same page
	// as x? No: x's page must be shared for instrumentation. Do it by
	// having both threads write DISTINCT blocks of x's page before the
	// ordered pair.
	_ = warm
	b.MovImm(isa.R1, 7)
	b.StoreAbs(x+64, isa.R1) // main touches x's page (private)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.ThreadJoin(isa.R9)
	b.MovImm(isa.R1, 1)
	b.StoreAbs(x, isa.R1) // ordered AFTER the child's write by join
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R1, 2)
	b.StoreAbs(x+128, isa.R1) // makes the page shared
	b.StoreAbs(x, isa.R1)     // child's write, ordered before the join
	b.Halt()
	prog := b.MustFinish()

	ft := runWith(t, prog, ModeFastTrackFull, "fasttrack")
	ls := runWith(t, prog, ModeFastTrackFull, "lockset")
	if len(racesOf(ft)) != 0 {
		t.Errorf("FastTrack flagged join-ordered writes: %v", racesOf(ft))
	}
	found := false
	for _, w := range warningsOf(ls) {
		if w.Addr == x {
			found = true
		}
	}
	if !found {
		t.Errorf("LockSet did not flag the unlocked (but ordered) writes: %v", warningsOf(ls))
	}
}

func TestDefaultAnalysisIsFastTrack(t *testing.T) {
	prog := sharedProgram(30, true)
	res := runWith(t, prog, ModeAikidoFastTrack, "fasttrack")
	if ftOf(res).Reads+ftOf(res).Writes == 0 {
		t.Error("default analysis did not run")
	}
}

func TestAtomicityCheckerOverAikido(t *testing.T) {
	// A stale-read bug: each thread's "increment" takes the lock twice —
	// read in one critical section, write in another — so a remote write
	// can interleave between read and... no: with separate regions the
	// checker is silent (cross-region). The detectable AVIO pattern is a
	// remote UNLOCKED write interleaving inside one lock-held region.
	b := isa.NewBuilder("atomviol")
	v := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.LoopN(isa.R2, 50, func(b *isa.Builder) {
		b.Lock(1)
		b.LoadAbs(isa.R3, v) // l1 = R
		b.AddImm(isa.R3, isa.R3, 1)
		b.StoreAbs(v, isa.R3) // l2 = W (R-?-W window)
		b.Unlock(1)
	})
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.LoopN(isa.R2, 50, func(b *isa.Builder) {
		// Unlocked remote writes that can land inside main's region.
		b.MovImm(isa.R3, 99)
		b.StoreAbs(v, isa.R3)
		b.Nop()
	})
	b.Halt()
	prog := b.MustFinish()

	res := runWith(t, prog, ModeAikidoFastTrack, "atomicity")
	if len(violationsOf(res)) == 0 {
		t.Fatal("atomicity checker missed the interleaved unlocked write")
	}
	found := false
	for _, viol := range violationsOf(res) {
		if viol.Addr == v && viol.Pattern == "R-W-W" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected R-W-W on %#x, got %v", v, violationsOf(res))
	}
	if atomOf(res).Regions == 0 {
		t.Error("no regions tracked")
	}

	// The same program with the remote writes also locked: clean.
	b2 := isa.NewBuilder("atomclean")
	v2 := b2.Global(4096, 4096)
	b2.MovImm(isa.R5, 0)
	b2.ThreadCreate("w", isa.R5)
	b2.Mov(isa.R9, isa.R0)
	body := func(b *isa.Builder) {
		b.Lock(1)
		b.LoadAbs(isa.R3, v2)
		b.AddImm(isa.R3, isa.R3, 1)
		b.StoreAbs(v2, isa.R3)
		b.Unlock(1)
	}
	b2.LoopN(isa.R2, 50, body)
	b2.ThreadJoin(isa.R9)
	b2.Halt()
	b2.Label("w")
	b2.LoopN(isa.R2, 50, body)
	b2.Halt()
	clean := runWith(t, b2.MustFinish(), ModeAikidoFastTrack, "atomicity")
	if len(violationsOf(clean)) != 0 {
		t.Errorf("properly locked increments reported: %v", violationsOf(clean))
	}
}
