package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// emitRandomOps appends a randomized straight-line schedule to the current
// worker body: loads and stores of mixed sizes (including block-straddling
// unaligned accesses) over the shared span, short same-address bursts, and
// deadlock-free nested locking (ids are only acquired in increasing
// order).
func emitRandomOps(b *isa.Builder, rng *rand.Rand, base uint64, span int) {
	sizes := []uint8{1, 2, 4, 8}
	var held []int64
	var lastAddr uint64
	var lastSize uint8
	var lastWrite bool
	have := false

	access := func(addr uint64, size uint8, write bool) {
		b.MovImm(isa.R4, int64(addr))
		if write {
			b.MovImm(isa.R3, int64(rng.Intn(1000)))
			b.StoreSized(size, isa.R4, 0, isa.R3)
		} else {
			b.LoadSized(size, isa.R3, isa.R4, 0)
		}
		lastAddr, lastSize, lastWrite, have = addr, size, write, true
	}

	n := 40 + rng.Intn(40)
	for k := 0; k < n; k++ {
		r := rng.Float64()
		switch {
		case r < 0.10 && len(held) < 2:
			// Acquire a lock above every held id (ordering discipline: no
			// deadlock regardless of the interleaving).
			floor := int64(0)
			if len(held) > 0 {
				floor = held[len(held)-1]
			}
			if id := floor + 1 + int64(rng.Intn(3)); id <= 4 {
				b.Lock(id)
				held = append(held, id)
			}
		case r < 0.20 && len(held) > 0:
			id := held[len(held)-1]
			held = held[:len(held)-1]
			b.Unlock(id)
		case r < 0.50 && have:
			// Burst: repeat the previous access 1-3 more times.
			for reps := 1 + rng.Intn(3); reps > 0; reps-- {
				access(lastAddr, lastSize, lastWrite)
			}
		default:
			size := sizes[rng.Intn(len(sizes))]
			// Stay inside one page (the VM rejects frame-crossing
			// accesses); 8-byte-block straddles still occur freely.
			page := uint64(rng.Intn(span / 4096))
			off := uint64(rng.Intn(4096 - int(size)))
			access(base+4096*page+off, size, rng.Float64() < 0.5)
		}
	}
	for len(held) > 0 {
		id := held[len(held)-1]
		held = held[:len(held)-1]
		b.Unlock(id)
	}
}

// randomScheduleProgram builds a deterministic-but-arbitrary guest: 2-4
// worker threads each running an independent random schedule over the same
// two shared pages.
func randomScheduleProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder(fmt.Sprintf("sched%d", seed))
	shared := b.Global(2*4096, 4096)
	handles := b.GlobalArray(4)
	nthreads := 2 + rng.Intn(3)
	for i := 0; i < nthreads; i++ {
		b.MovImm(isa.R5, int64(i))
		b.ThreadCreate(fmt.Sprintf("w%d", i), isa.R5)
		b.StoreAbs(handles+uint64(8*i), isa.R0)
	}
	for i := 0; i < nthreads; i++ {
		b.LoadAbs(isa.R9, handles+uint64(8*i))
		b.ThreadJoin(isa.R9)
	}
	b.Halt()
	for i := 0; i < nthreads; i++ {
		b.Label(fmt.Sprintf("w%d", i))
		emitRandomOps(b, rng, shared, 2*4096)
		b.Halt()
	}
	return b.MustFinish()
}

// TestAikidoRacesSubsetOfFullOnRandomSchedules runs each random schedule
// under full FastTrack and under Aikido-FastTrack. Both modes execute the
// same interleaving, and Aikido only withholds the accesses that drive a
// page's Unused→Private→Shared transitions (§6), so it may miss races in
// that first-access window but never report one full instrumentation does
// not. The property must not hold vacuously: some racy seeds must agree
// exactly and some must show the window.
func TestAikidoRacesSubsetOfFullOnRandomSchedules(t *testing.T) {
	addrs := func(r *Result) map[uint64]bool {
		m := map[uint64]bool{}
		for _, race := range racesOf(r) {
			m[race.Addr] = true
		}
		return m
	}
	var equal, strict, window int
	for seed := int64(0); seed < 64; seed++ {
		prog := randomScheduleProgram(seed)
		full := addrs(mustRun(t, prog, ModeFastTrackFull))
		aikido := addrs(mustRun(t, prog, ModeAikidoFastTrack))
		for a := range aikido {
			if !full[a] {
				t.Errorf("seed %d: Aikido reports a race at %#x that full FastTrack does not", seed, a)
			}
		}
		switch {
		case len(full) == 0:
		case len(aikido) == len(full):
			equal++
		default:
			strict++
			window += len(full) - len(aikido)
		}
	}
	t.Logf("racy seeds: %d with identical race sets, %d strict subsets (%d first-access-window addresses)",
		equal, strict, window)
	if equal == 0 || strict == 0 {
		t.Fatalf("property is vacuous: %d equal and %d strict-subset racy seeds", equal, strict)
	}
}
