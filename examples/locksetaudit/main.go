// Locksetaudit runs the Eraser LockSet discipline checker on top of Aikido
// — a second shared-data analysis hosted by the framework (the paper's
// §7.3 contrast between happens-before and lockset detection, both
// accelerated the same way).
//
// The program under audit has three shared variables with three different
// synchronization habits:
//
//   - `good`   — always accessed under lock 1 (clean);
//   - `bad`    — each thread uses its *own* lock (discipline violation and
//     a real race);
//   - `ordered`— unlocked, but accesses are ordered by join (no race, yet
//     a discipline violation: the classic LockSet false positive that
//     FastTrack avoids).
//
// Run with:
//
//	go run ./examples/locksetaudit
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/lockset"
)

func main() {
	b := isa.NewBuilder("audit")
	good := b.Global(4096, 4096)
	bad := b.Global(4096, 4096)
	ordered := b.Global(4096, 4096)

	loop := func(b *isa.Builder, lockID int64) {
		b.LoopN(isa.R2, 40, func(b *isa.Builder) {
			b.Lock(1)
			b.LoadAbs(isa.R3, good)
			b.AddImm(isa.R3, isa.R3, 1)
			b.StoreAbs(good, isa.R3)
			b.Unlock(1)

			b.Lock(lockID) // a different lock per thread: broken discipline
			b.LoadAbs(isa.R3, bad)
			b.AddImm(isa.R3, isa.R3, 1)
			b.StoreAbs(bad, isa.R3)
			b.Unlock(lockID)
		})
	}

	// Main touches `ordered`'s page first, so the worker's very first
	// store drives it Private→Shared and every subsequent access is
	// instrumented. (Without this, the join-ordered pair would fall into
	// Aikido's first-access window, §6, and neither analysis would see
	// it — a nice illustration of why the window is "well-defined and
	// targeted".)
	b.MovImm(isa.R1, 9)
	b.StoreAbs(ordered+16, isa.R1)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	loop(b, 2)
	b.ThreadJoin(isa.R9)
	// Join-ordered unlocked write: safe, but against the discipline.
	b.MovImm(isa.R1, 1)
	b.StoreAbs(ordered, isa.R1)
	b.Halt()
	b.Label("worker")
	b.MovImm(isa.R1, 2)
	b.StoreAbs(ordered, isa.R1) // page already private-to-main: goes shared here
	loop(b, 3)
	b.Halt()
	prog := b.MustFinish()

	// One multiplexed pass hosts BOTH analyses: the registry fans the
	// single instrumented execution out to LockSet and FastTrack, so the
	// comparison below comes from one run, not two.
	cfg := core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses("lockset", "fasttrack")
	cfg.Quantum = 50
	res, err := core.Run(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ls, ft := res, res

	name := func(a uint64) string {
		switch a &^ 7 {
		case good:
			return "good (locked)"
		case bad:
			return "bad (per-thread locks)"
		case ordered:
			return "ordered (join-ordered, unlocked)"
		}
		return fmt.Sprintf("%#x", a)
	}

	fmt.Println("=== Eraser LockSet over Aikido ===")
	fmt.Printf("accesses analyzed (shared pages only): %d\n", ls.SD.SharedPageAccesses)
	fmt.Printf("lockset refinements: %d\n", lockset.CountersIn(ls.Findings).Refinements)
	fmt.Println("discipline violations:")
	for _, w := range lockset.WarningsIn(ls.Findings) {
		fmt.Printf("  %s — %v\n", name(w.Addr), w)
	}

	fmt.Println()
	fmt.Println("=== FastTrack, same multiplexed pass ===")
	fmt.Println("races:")
	for _, r := range fasttrack.RacesIn(ft.Findings) {
		fmt.Printf("  %s — %v\n", name(r.Addr), r)
	}

	fmt.Println()
	fmt.Println("LockSet flags `bad` (real race) AND `ordered` (false positive);")
	fmt.Println("FastTrack flags only `bad`. Same framework, same shared-page")
	fmt.Println("acceleration, different precision trade-offs (paper §7.3).")

	// Sanity for CI-style runs.
	hasLS := map[string]bool{}
	for _, w := range lockset.WarningsIn(ls.Findings) {
		hasLS[name(w.Addr)] = true
	}
	if !hasLS["bad (per-thread locks)"] || !hasLS["ordered (join-ordered, unlocked)"] {
		log.Fatal("LockSet missed an expected violation")
	}
	for _, r := range fasttrack.RacesIn(ft.Findings) {
		if r.Addr == good || r.Addr == ordered {
			log.Fatal("FastTrack flagged a non-racing variable")
		}
	}
}
