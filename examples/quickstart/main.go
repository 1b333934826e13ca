// Quickstart: build a small two-thread guest program with an unsynchronized
// shared counter, run it under the full Aikido stack with the FastTrack
// race detector, and print what the sharing detector and the analysis saw.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
)

func main() {
	// Assemble a guest program: main spawns a worker; both increment a
	// shared counter 100 times without holding a lock (a data race), and
	// each also hammers a private scratch page (no race, never shared).
	b := isa.NewBuilder("quickstart")
	counter := b.Global(4096, 4096) // page-aligned shared counter
	scratch := b.Global(2*4096, 4096)

	work := func(b *isa.Builder, scratchOff int64) {
		b.LoopN(isa.R2, 100, func(b *isa.Builder) {
			// Racy read-modify-write of the shared counter.
			b.LoadAbs(isa.R3, counter)
			b.AddImm(isa.R3, isa.R3, 1)
			b.StoreAbs(counter, isa.R3)
			// Private traffic: cheap under Aikido, expensive under
			// a conservative instrument-everything detector.
			b.MovImm(isa.R4, int64(scratch)+scratchOff)
			b.Store(isa.R4, 0, isa.R2)
			b.Load(isa.R5, isa.R4, 0)
		})
	}

	b.MovImm(isa.R5, 0)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	work(b, 0)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("worker")
	work(b, 4096) // the worker's scratch lives on its own page
	b.Halt()
	prog := b.MustFinish()

	// Run natively (the normalization baseline), under full FastTrack,
	// and under Aikido-FastTrack.
	cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
	cfg.Quantum = 50 // fine-grained interleaving for the demo
	aikido, err := core.Run(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ncfg := core.DefaultConfig(core.ModeNative)
	native, err := core.Run(prog, ncfg)
	if err != nil {
		log.Fatal(err)
	}
	fcfg := core.DefaultConfig(core.ModeFastTrackFull)
	fcfg.Quantum = 50
	full, err := core.Run(prog, fcfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Aikido quickstart ===")
	fmt.Printf("memory accesses:            %d\n", aikido.Engine.MemRefs)
	fmt.Printf("accesses on shared pages:   %d (%.1f%%)\n",
		aikido.SD.SharedPageAccesses, 100*aikido.SharedAccessFraction())
	fmt.Printf("pages private/shared:       %d/%d\n", aikido.SD.PagesPrivate, aikido.SD.PagesShared)
	fmt.Printf("instructions instrumented:  %d (of %d executed memory instructions)\n",
		aikido.SD.InstrumentedPCs, aikido.Engine.MemRefs)
	fmt.Printf("page faults used:           %d\n", aikido.HV.AikidoFaults)
	fmt.Println()
	fmt.Printf("slowdown, FastTrack-full:   %.1fx\n", full.Slowdown(native))
	fmt.Printf("slowdown, Aikido-FastTrack: %.1fx\n", aikido.Slowdown(native))
	fmt.Println()
	fmt.Printf("races found by Aikido-FastTrack: %d\n", len(fasttrack.RacesIn(aikido.Findings)))
	for _, r := range fasttrack.RacesIn(aikido.Findings) {
		fmt.Printf("  %v\n", r)
	}
	if len(fasttrack.RacesIn(aikido.Findings)) == 0 {
		log.Fatal("expected to find the counter race")
	}
}
