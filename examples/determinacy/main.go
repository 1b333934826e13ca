// Determinacy-race detection with SP-bags (paper §1 and §7.3, the
// Nondeterminator): a schedule-independent verdict for fork-join programs,
// including the case that separates determinacy races from data races — a
// lock-"protected" counter that FastTrack certifies race-free but whose
// value still depends on the schedule. SP-bags runs as the "spbags"
// analysis of a fully instrumented core.System, which it switches to the
// serial depth-first schedule.
//
// Run with:
//
//	go run ./examples/determinacy
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/spbags"
	"repro/internal/workload"
)

func check(label string, spec workload.ForkJoinSpec, note string) (spRaces, ftRaces int) {
	prog, err := workload.BuildForkJoin(spec)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(spbags.Kind))
	if err != nil {
		log.Fatal(err)
	}
	races := sp.AnalysisFindings(spbags.Kind).(*spbags.Findings).Races
	ft, err := core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s SP-bags: %3d   FastTrack: %3d   %s\n",
		label, len(races), len(fasttrack.RacesIn(ft.Findings)), note)
	if len(races) > 0 {
		fmt.Printf("%-16s first report: %v\n", "", races[0])
	}
	return len(races), len(fasttrack.RacesIn(ft.Findings))
}

func main() {
	fmt.Println("=== Nondeterminator-style determinacy checking (§1, §7.3) ===")
	fmt.Println("divide-and-conquer fork-join over a 128-element array, leaves of 8")
	fmt.Println()

	clean, cleanFT := check("race-free",
		workload.ForkJoinSpec{Name: "clean", Elems: 128, LeafSize: 8},
		"disjoint leaf slices")
	racy, racyFT := check("racy-counter",
		workload.ForkJoinSpec{Name: "racy", Elems: 128, LeafSize: 8, RacyCounter: true},
		"unsynchronized shared counter")
	locked, lockedFT := check("locked-counter",
		workload.ForkJoinSpec{Name: "locked", Elems: 128, LeafSize: 8, LockCounter: true},
		"lock-ordered counter: a determinacy race but NOT a data race")

	fmt.Println()
	switch {
	case clean != 0 || cleanFT != 0:
		log.Fatal("false positive on the race-free program")
	case racy == 0 || racyFT == 0:
		log.Fatal("both detectors should flag the unsynchronized counter")
	case locked == 0:
		log.Fatal("SP-bags should flag the schedule-dependent locked counter")
	case lockedFT != 0:
		log.Fatal("FastTrack should not flag the lock-ordered counter (no data race)")
	}
	fmt.Println("SP-bags' verdict is schedule independent: 'race free' here means race")
	fmt.Println("free on EVERY schedule for this input — the guarantee §1 says filtering")
	fmt.Println("and sampling detectors give up, and which Aikido preserves up to the")
	fmt.Println("first-two-access window of §6.")
}
