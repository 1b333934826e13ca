package sharing_test

// Tests of epoch-based re-privatization (epoch.go), at the level the
// mechanism must be judged: the full Aikido stack. The soundness claim is
// that demotion only re-arms protections, so the first post-demotion
// cross-thread access always faults and re-drives the Figure 3
// transitions — no cross-thread access can ever be missed. The property
// test below checks the observable form of that claim: under random,
// maximally aggressive demotion schedules, the set of racy addresses
// FastTrack reports is identical to the terminal-Shared baseline's, and
// no spurious faults ever occur.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/sharing"
	"repro/internal/vm"
)

// racePattern describes up to 3 concurrently-running workers hammering 4
// pages: Touch[w] selects the pages worker w writes each iteration, and
// Slot[w] selects which of two 8-byte slots per page it writes. Two
// workers conflict — and, with no synchronization between workers, race —
// exactly when they share a (page, slot) pair.
type racePattern struct {
	Touch [3]uint8
	Slot  [3]uint8 // bit p = worker's slot index on page p
	// IntervalSel randomizes the demotion schedule (epoch length).
	IntervalSel uint8
}

const racePages = 4

// buildRacePattern compiles the pattern: main spawns the three workers
// (creation serialized by lock 0, as the guest ABI requires) and joins
// them only after all are running, so the workers genuinely interleave.
func buildRacePattern(p racePattern) *isa.Program {
	b := isa.NewBuilder("racepattern")
	pages := b.Global(racePages*vm.PageSize, vm.PageSize)
	tids := b.GlobalArray(3)

	for w := 0; w < 3; w++ {
		b.Lock(0)
		b.MovImm(isa.R5, int64(w))
		b.ThreadCreate("worker", isa.R5)
		b.Unlock(0)
		b.StoreAbs(tids+uint64(w*8), isa.R0)
	}
	for w := 0; w < 3; w++ {
		b.LoadAbs(isa.R9, tids+uint64(w*8))
		b.ThreadJoin(isa.R9)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	// Worker bodies: dispatch on the worker index, then loop 24 times
	// over the assigned (page, slot) writes — enough iterations that
	// every conflicting pair overlaps a Shared interval many times even
	// while demotion keeps re-privatizing the pages underneath them.
	b.Label("worker")
	for w := 0; w < 3; w++ {
		skip := fmt.Sprintf(".w%d", w)
		b.BrImm(isa.NE, isa.R0, int64(w), skip)
		b.MovImm(isa.R3, int64(w+1))
		b.LoopN(isa.R2, 24, func(b *isa.Builder) {
			for pg := 0; pg < racePages; pg++ {
				if p.Touch[w]&(1<<pg) == 0 {
					continue
				}
				slot := uint64((p.Slot[w] >> pg) & 1)
				b.StoreAbs(pages+uint64(pg*vm.PageSize)+8*slot, isa.R3)
			}
		})
		b.Halt()
		b.Label(skip)
	}
	b.Halt()
	return b.MustFinish()
}

// raceAddrs reduces a result to the set of racy block addresses.
func raceAddrs(res *core.Result) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, r := range fasttrack.RacesIn(res.Findings) {
		out[r.Addr] = true
	}
	return out
}

// TestEpochDemotionPreservesRaces is the no-missed-access property: for
// random access patterns and random (maximally aggressive) demotion
// schedules, the racy addresses detected with demotion enabled are
// exactly the baseline's. Demotion may delay a detection to the
// re-sharing fault, but it can never lose one — and it must never cause
// a spurious fault.
func TestEpochDemotionPreservesRaces(t *testing.T) {
	demotionsSeen := uint64(0)
	prop := func(p racePattern) bool {
		prog := buildRacePattern(p)
		run := func(epoch bool) *core.Result {
			cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
			cfg.Aikido.Epoch = sharing.EpochPolicy{}
			if epoch {
				cfg.Aikido.Epoch = sharing.EpochPolicy{
					// A schedule far more aggressive than any sane
					// deployment: epochs of a few thousand cycles,
					// single-epoch demotion, instant quiet demotion.
					Interval:     2_000 + 1_000*uint64(p.IntervalSel%8),
					DemoteAfter:  1,
					QuietAfter:   1,
					MinOwnerHits: 1,
				}
			}
			res, err := core.Run(prog, cfg)
			if err != nil {
				t.Logf("run(epoch=%v): %v", epoch, err)
				return nil
			}
			return res
		}
		base, ep := run(false), run(true)
		if base == nil || ep == nil {
			return false
		}
		if ep.SD.SpuriousFaults != 0 {
			t.Logf("spurious faults: %d", ep.SD.SpuriousFaults)
			return false
		}
		demotionsSeen += ep.SD.PagesDemotedPrivate + ep.SD.PagesDemotedUnused
		want, got := raceAddrs(base), raceAddrs(ep)
		if len(want) != len(got) {
			t.Logf("race sets diverge: baseline %v, epoch %v (pattern %+v)", want, got, p)
			return false
		}
		for a := range want {
			if !got[a] {
				t.Logf("race on %#x missed under demotion (pattern %+v)", a, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if demotionsSeen == 0 {
		t.Error("no demotion ever fired: the property was vacuous")
	}
}

// TestEpochHandoffRefaults pins the deterministic handoff behaviour on a
// barrier-phased ping-pong: two workers alternately own one page. With
// an aggressive policy the page demotes to the active owner each phase,
// and the next owner's first access must re-fault it back to Shared —
// counted by PagesReshared, with no spurious faults and no findings
// (the handoffs are barrier-ordered).
func TestEpochHandoffRefaults(t *testing.T) {
	b := isa.NewBuilder("pingpong")
	page := b.Global(vm.PageSize, vm.PageSize)
	tids := b.GlobalArray(2)
	for w := 0; w < 2; w++ {
		b.Lock(0)
		b.MovImm(isa.R5, int64(w))
		b.ThreadCreate("worker", isa.R5)
		b.Unlock(0)
		b.StoreAbs(tids+uint64(w*8), isa.R0)
	}
	for w := 0; w < 2; w++ {
		b.LoadAbs(isa.R9, tids+uint64(w*8))
		b.ThreadJoin(isa.R9)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	// Worker w: 6 phases; in phase k only worker k%2 hammers the page
	// (200 writes), then both meet at a barrier.
	b.Label("worker")
	b.Mov(isa.R4, isa.R0)
	b.MovImm(isa.R3, 7)
	for k := 0; k < 6; k++ {
		skip := fmt.Sprintf(".idle%d", k)
		b.BrImm(isa.NE, isa.R4, int64(k%2), skip)
		b.LoopN(isa.R2, 200, func(b *isa.Builder) {
			b.StoreAbs(page+8, isa.R3)
			b.StoreAbs(page+16, isa.R3)
		})
		b.Label(skip)
		b.Barrier(int64(300+k), 2)
	}
	b.Halt()
	prog := b.MustFinish()

	cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
	cfg.Aikido.Epoch = sharing.EpochPolicy{Interval: 3_000, DemoteAfter: 1, QuietAfter: 2, MinOwnerHits: 1}
	res, err := core.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SD.PagesDemotedPrivate == 0 {
		t.Error("expected owner demotions on the ping-pong page")
	}
	if res.SD.PagesReshared == 0 {
		t.Error("expected the handoff to re-fault demoted pages back to Shared")
	}
	if res.SD.SpuriousFaults != 0 {
		t.Errorf("spurious faults: %d", res.SD.SpuriousFaults)
	}
	if n := len(fasttrack.RacesIn(res.Findings)); n != 0 {
		t.Errorf("barrier-ordered ping-pong reported %d races", n)
	}

	cfg.Aikido.Epoch = sharing.EpochPolicy{}
	base, err := core.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles <= res.Cycles {
		t.Errorf("demotion did not pay off: baseline %d cycles, epoch %d", base.Cycles, res.Cycles)
	}
}

// TestEpochQuietDemotionWithZeroMinOwnerHits pins the MinOwnerHits
// normalization: with MinOwnerHits left 0, a wholly quiet epoch must
// still count as quiet (not as "dominated by NoTID"), so an abandoned
// Shared page falls to Unused — never to Private(NoTID).
func TestEpochQuietDemotionWithZeroMinOwnerHits(t *testing.T) {
	// Page A is shared once and abandoned; page B is hammered by both
	// workers throughout, keeping instrumented executions (and so epoch
	// ticks) flowing while A sits idle.
	b := isa.NewBuilder("quiet")
	pages := b.Global(2*vm.PageSize, vm.PageSize)
	tids := b.GlobalArray(2)
	for w := 0; w < 2; w++ {
		b.Lock(0)
		b.MovImm(isa.R5, int64(w))
		b.ThreadCreate("worker", isa.R5)
		b.Unlock(0)
		b.StoreAbs(tids+uint64(w*8), isa.R0)
	}
	for w := 0; w < 2; w++ {
		b.LoadAbs(isa.R9, tids+uint64(w*8))
		b.ThreadJoin(isa.R9)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	b.Label("worker")
	b.MovImm(isa.R3, 1)
	b.Shl(isa.R4, isa.R0, 3)
	b.StoreAbs(pages+8, isa.R3)  // share page A once
	b.StoreAbs(pages+16, isa.R3) // (both workers, different slots)
	b.MovImm(isa.R5, int64(pages+uint64(vm.PageSize)+8))
	b.Add(isa.R4, isa.R4, isa.R5)
	b.LoopN(isa.R2, 600, func(b *isa.Builder) {
		b.Store(isa.R4, 0, isa.R3) // hammer page B forever
	})
	b.Halt()
	prog := b.MustFinish()

	cfg := core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses()
	cfg.Aikido.Epoch = sharing.EpochPolicy{Interval: 2_000, DemoteAfter: 4, QuietAfter: 2, MinOwnerHits: 0}
	s, err := core.NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SD.C.PagesDemotedUnused == 0 {
		t.Errorf("abandoned page never fell to Unused: %+v", s.SD.C)
	}
	st, owner := s.SD.PageStateOf(isa.DataBase)
	if st == sharing.Private && owner == 0 {
		t.Errorf("page A demoted to Private(NoTID): quiet epochs counted as dominance")
	}
}

// TestEpochSweepStateMachine drives the epoch sweep through the public
// profile surface: a page shared by two threads, then accessed by
// one, must demote to that owner after the configured dominance streak —
// and an untouched page must fall to Unused via the quiet path.
func TestEpochSweepStateMachine(t *testing.T) {
	// Worker 0 touches pages 0+1, worker 1 touches page 0 once (shares
	// it), then worker 0 keeps hammering page 0 alone.
	b := isa.NewBuilder("sweep")
	pages := b.Global(2*vm.PageSize, vm.PageSize)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w0", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.ThreadJoin(isa.R9)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	b.Label("w0")
	b.MovImm(isa.R3, 1)
	b.StoreAbs(pages+8, isa.R3)                   // page 0: private to w0
	b.StoreAbs(pages+uint64(vm.PageSize), isa.R3) // page 1: private to w0
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("w1", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.ThreadJoin(isa.R9) // w1 shares page 0, exits
	b.LoopN(isa.R2, 400, func(b *isa.Builder) {
		b.StoreAbs(pages+8, isa.R3) // w0 alone: dominance
	})
	b.Halt()

	b.Label("w1")
	b.MovImm(isa.R3, 2)
	b.StoreAbs(pages+16, isa.R3) // page 0 turns Shared
	b.Halt()
	prog := b.MustFinish()

	cfg := core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses()
	cfg.Aikido.Epoch = sharing.EpochPolicy{Interval: 2_000, DemoteAfter: 2, QuietAfter: 0, MinOwnerHits: 1}
	s, err := core.NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SD.C.PagesDemotedPrivate == 0 {
		t.Fatalf("page 0 never demoted: %+v", s.SD.C)
	}
	st, owner := s.SD.PageStateOf(isa.DataBase)
	if st != sharing.Private {
		t.Errorf("page 0 after dominance: %v (owner %d), want private", st, owner)
	}
	if s.SD.EpochPages() != 0 {
		t.Errorf("demoted pages still under epoch accounting: %d", s.SD.EpochPages())
	}
}
