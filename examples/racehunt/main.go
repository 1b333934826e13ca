// Racehunt reproduces the paper's §5.3 case study: the canneal benchmark's
// Mersenne-Twister-style random number generator keeps its state in shared
// memory and updates it without synchronization. The race is "benign" in
// the sense that any value is an acceptable random number — but, as the
// paper notes, the statistical guarantees of the generator no longer hold
// under racy updates.
//
// This example builds a guest program where worker threads draw numbers
// from one global xorshift-style RNG without a lock, runs it under both the
// conservative FastTrack detector and Aikido-FastTrack, and shows that the
// two tools agree on the racy state words (the paper's cross-check that
// Aikido loses none of the races that matter).
//
// Run with:
//
//	go run ./examples/racehunt
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
)

// buildRNGProgram returns a program where nWorkers threads each draw n
// numbers from a shared xorshift generator with no locking (the canneal
// pattern), accumulating results into private pages.
func buildRNGProgram(nWorkers int, draws int64) (*isa.Program, uint64) {
	b := isa.NewBuilder("racehunt")
	rngState := b.GlobalU64(0x9E3779B97F4A7C15) // seeded generator state
	_ = b.Global(4096-8, 1)                     // pad: state gets its own page
	private := b.Global(nWorkers*4096, 4096)

	for w := 0; w < nWorkers; w++ {
		b.MovImm(isa.R5, int64(w))
		b.ThreadCreate("worker", isa.R5)
	}
	// Join all workers: tids are w+2 by construction (main is 1 and
	// creation happens in program order).
	for w := 0; w < nWorkers; w++ {
		b.MovImm(isa.R0, int64(w+2))
		b.Syscall(isa.SysThreadJoin)
	}
	b.Halt()

	b.Label("worker")
	// R0 = worker index; private accumulator cell on the worker's page.
	b.MovImm(isa.R7, 4096)
	b.Mul(isa.R7, isa.R0, isa.R7)
	b.MovImm(isa.R8, int64(private))
	b.Add(isa.R7, isa.R7, isa.R8) // R7 = &private[w*page]
	b.LoopN(isa.R2, draws, func(b *isa.Builder) {
		// xorshift step on the SHARED state, unsynchronized:
		//   s ^= s << 13; s ^= s >> 7; s ^= s << 17
		b.LoadAbs(isa.R3, rngState)
		b.Shl(isa.R4, isa.R3, 13)
		b.Xor(isa.R3, isa.R3, isa.R4)
		b.Shr(isa.R4, isa.R3, 7)
		b.Xor(isa.R3, isa.R3, isa.R4)
		b.Shl(isa.R4, isa.R3, 17)
		b.Xor(isa.R3, isa.R3, isa.R4)
		b.StoreAbs(rngState, isa.R3)
		// Consume the draw privately.
		b.Load(isa.R5, isa.R7, 8)
		b.Add(isa.R5, isa.R5, isa.R3)
		b.Store(isa.R7, 8, isa.R5)
	})
	b.Halt()
	return b.MustFinish(), rngState
}

func run(prog *isa.Program, mode core.Mode) *core.Result {
	cfg := core.DefaultConfig(mode)
	cfg.Quantum = 60 // interleave generator calls
	res, err := core.Run(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	prog, rngState := buildRNGProgram(4, 200)

	full := run(prog, core.ModeFastTrackFull)
	aikido := run(prog, core.ModeAikidoFastTrack)

	onState := func(rs []fasttrack.Race) []fasttrack.Race {
		var out []fasttrack.Race
		for _, r := range rs {
			if r.Addr == rngState {
				out = append(out, r)
			}
		}
		return out
	}

	fmt.Println("=== hunting the canneal-style RNG race (paper §5.3) ===")
	fmt.Printf("FastTrack-full:    %d races total, %d on the RNG state word\n",
		len(fasttrack.RacesIn(full.Findings)), len(onState(fasttrack.RacesIn(full.Findings))))
	fmt.Printf("Aikido-FastTrack:  %d races total, %d on the RNG state word\n",
		len(fasttrack.RacesIn(aikido.Findings)), len(onState(fasttrack.RacesIn(aikido.Findings))))
	fmt.Println()
	fmt.Println("sample reports from Aikido-FastTrack:")
	for i, r := range onState(fasttrack.RacesIn(aikido.Findings)) {
		if i == 4 {
			break
		}
		fmt.Printf("  %v\n", r)
	}

	if len(onState(fasttrack.RacesIn(full.Findings))) == 0 || len(onState(fasttrack.RacesIn(aikido.Findings))) == 0 {
		log.Fatal("expected both detectors to flag the RNG state")
	}
	fmt.Println()
	fmt.Println("Both detectors agree: the generator state is updated racily.")
	fmt.Println("The race is 'benign' only if you do not care about the")
	fmt.Println("generator's statistical properties (paper §5.3).")
}
