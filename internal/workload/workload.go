// Package workload compiles parallel-workload specifications into guest
// programs. A Spec describes the *sharing characteristics* of a program —
// how many threads, how much arithmetic per memory access, which fraction
// of accesses touch shared pages, how synchronization is structured — and
// Build emits an isa.Program realizing them.
//
// This is the substitution for the PARSEC binaries of the paper's
// evaluation: the experiments' independent variables are
// exactly these characteristics, taken from Table 2 and Figure 6, so a
// synthetic program reproducing them exercises the same Aikido code paths
// in the same proportions.
package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Source is any compilable workload specification: the concurrent runner
// executes Sources without knowing their concrete shape, which is how the
// phased/migratory/false-sharing generators (phased.go, falseshare.go)
// ride the same experiment machinery as the PARSEC-style Spec.
type Source interface {
	// Compile builds the guest program. Must be a pure function of the
	// spec (the runner's determinism contract relies on it).
	Compile() (*isa.Program, error)
	// SourceName labels the workload in reports and errors.
	SourceName() string
}

// Spec describes one workload. All threads execute the same worker loop
// (same PCs), as PARSEC worker pools do.
type Spec struct {
	// Name labels the generated program.
	Name string
	// Threads is the number of worker threads (the main thread only
	// spawns and joins them, serialized as in paper §4.2).
	Threads int
	// Iters is the per-worker iteration count.
	Iters int

	// AluOps is the number of non-memory instructions per iteration
	// (controls the memory-instruction fraction and thus the baseline
	// detector overhead).
	AluOps int
	// PrivateOps is the number of accesses per iteration to the worker's
	// private pages (never shared).
	PrivateOps int
	// PrivatePages is the number of private pages each worker walks.
	PrivatePages int

	// SharedOps is the number of accesses to shared pages executed every
	// SharedPeriod-th iteration (SharedPeriod=1 ⇒ every iteration).
	// These instructions only ever touch shared data.
	SharedOps    int
	SharedPeriod int
	// Locks is the number of fine-grained locks protecting the shared
	// region; each lock guards its own page. 0 means shared accesses are
	// unsynchronized (racy).
	Locks int
	// SharedWritePct is the percentage (0..100) of SharedOps that are
	// stores. 0 means the default of 50. Write-heavy sharing transfers
	// cache-line ownership on every access and is the pattern where
	// Aikido's mirror redirection is most expensive.
	SharedWritePct int

	// MixedOps is the number of accesses per iteration by *mixed*
	// instructions: they touch shared data every MixedPeriod-th
	// iteration and private data otherwise. Once instrumented, their
	// private executions still run through the shared/private check —
	// this is what makes Table 2's "Instrumented Instrs." exceed "Shared
	// Page Accesses".
	MixedOps    int
	MixedPeriod int

	// RacyOps is the number of unsynchronized accesses to a dedicated
	// racy page executed every RacyPeriod-th iteration (models e.g.
	// canneal's unlocked Mersenne-Twister state, §5.3).
	RacyOps    int
	RacyPeriod int

	// ROSharedOps is the number of unsynchronized *loads* per iteration
	// from a read-only shared page. Concurrent reads never race but do
	// drive FastTrack's read-vector-clock slow path — the expensive
	// sharing pattern of read-mostly applications.
	ROSharedOps int

	// BarrierPeriod inserts a worker barrier every BarrierPeriod
	// iterations (0 = none), as in barrier-phased PARSEC apps.
	BarrierPeriod int

	// ReadFraction of shared accesses are loads, the rest stores,
	// approximated as 1 load per Read+1 group. 0 defaults to half.
	// (kept simple: even ops are loads, odd are stores).
}

// Validate checks the spec for structural problems.
func (s *Spec) Validate() error {
	if s.Threads < 1 {
		return fmt.Errorf("workload %s: needs at least 1 thread", s.Name)
	}
	if s.Iters < 1 {
		return fmt.Errorf("workload %s: needs at least 1 iteration", s.Name)
	}
	if s.SharedOps > 0 && s.SharedPeriod < 1 {
		return fmt.Errorf("workload %s: SharedOps without SharedPeriod", s.Name)
	}
	if s.MixedOps > 0 && s.MixedPeriod < 1 {
		return fmt.Errorf("workload %s: MixedOps without MixedPeriod", s.Name)
	}
	if s.RacyOps > 0 && s.RacyPeriod < 1 {
		return fmt.Errorf("workload %s: RacyOps without RacyPeriod", s.Name)
	}
	if s.PrivatePages < 1 && s.PrivateOps > 0 {
		return fmt.Errorf("workload %s: PrivateOps without PrivatePages", s.Name)
	}
	return nil
}

// MemRefsPerIter returns the average memory-referencing instructions per
// worker iteration (for calibration arithmetic in tests and docs).
func (s *Spec) MemRefsPerIter() float64 {
	m := float64(s.PrivateOps) + float64(s.MixedOps) + float64(s.ROSharedOps)
	if s.SharedOps > 0 {
		m += float64(s.SharedOps) / float64(s.SharedPeriod)
	}
	if s.RacyOps > 0 {
		m += float64(s.RacyOps) / float64(s.RacyPeriod)
	}
	return m
}

// ExpectedSharedFraction predicts the fraction of memory accesses that
// target shared pages (the Figure 6 metric) from the spec parameters.
func (s *Spec) ExpectedSharedFraction() float64 {
	m := s.MemRefsPerIter()
	if m == 0 {
		return 0
	}
	sh := float64(s.ROSharedOps)
	if s.SharedOps > 0 {
		sh += float64(s.SharedOps) / float64(s.SharedPeriod)
	}
	if s.MixedOps > 0 {
		sh += float64(s.MixedOps) / float64(s.MixedPeriod)
	}
	if s.RacyOps > 0 {
		sh += float64(s.RacyOps) / float64(s.RacyPeriod)
	}
	return sh / m
}

// Compile implements Source.
func (s Spec) Compile() (*isa.Program, error) { return Build(s) }

// SourceName implements Source.
func (s Spec) SourceName() string { return s.Name }

// Register allocation for the generated worker loop.
const (
	rIdx       = isa.R2 // loop counter (LoopN)
	rVal       = isa.R3 // scratch value
	rPriv      = isa.R4 // private base + rotating offset
	rShared    = isa.R5 // shared region base
	rTmp       = isa.R6 // scratch
	rSharedCtr = isa.R7 // iteration counter mod SharedPeriod
	rMixedCtr  = isa.R8 // iteration counter mod MixedPeriod
	rMixBase   = isa.R9 // mixed-op base (shared or private)
	rRacyCtr   = isa.R10
	rRacy      = isa.R11
	rBarCtr    = isa.R12
	rJoin      = isa.R13 // main: child tid list walker
)

// Build compiles the spec into a program.
func Build(s Spec) (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := isa.NewBuilder(s.Name)

	// Layout: shared region (one page per lock, at least one page),
	// racy page, per-worker private pages.
	sharedPages := s.Locks
	if sharedPages < 1 {
		sharedPages = 1
	}
	sharedBase := b.Global(sharedPages*vm.PageSize, vm.PageSize)
	racyBase := b.Global(vm.PageSize, vm.PageSize)
	roBase := b.Global(vm.PageSize, vm.PageSize)
	privPages := s.PrivatePages
	if privPages < 1 {
		privPages = 1
	}
	privBase := b.Global(s.Threads*privPages*vm.PageSize, vm.PageSize)

	// --- main thread: spawn workers (serialized by lock 0), join, exit.
	tids := b.GlobalArray(s.Threads)
	for w := 0; w < s.Threads; w++ {
		b.Lock(0) // serialize thread creation (§4.2)
		b.MovImm(rTmp, int64(w))
		b.ThreadCreate("worker", rTmp)
		b.Unlock(0)
		b.StoreAbs(tids+uint64(w*8), isa.R0)
	}
	for w := 0; w < s.Threads; w++ {
		b.LoadAbs(rJoin, tids+uint64(w*8))
		b.ThreadJoin(rJoin)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	// --- worker: R0 = worker index.
	b.Label("worker")
	// rPriv = privBase + w*privPages*PageSize
	b.MovImm(rTmp, int64(privPages*vm.PageSize))
	b.Mul(rPriv, isa.R0, rTmp)
	b.MovImm(rTmp, int64(privBase))
	b.Add(rPriv, rPriv, rTmp)
	b.MovImm(rShared, int64(sharedBase))
	b.MovImm(rRacy, int64(racyBase))
	b.MovImm(rSharedCtr, 0)
	b.MovImm(rMixedCtr, 0)
	b.MovImm(rRacyCtr, 0)
	b.MovImm(rBarCtr, 0)

	b.LoopN(rIdx, int64(s.Iters), func(b *isa.Builder) {
		emitIteration(b, &s, privPages, roBase)
	})
	b.Halt()

	return b.Finish()
}

// emitIteration generates one worker-loop body.
func emitIteration(b *isa.Builder, s *Spec, privPages int, roBase uint64) {
	pc := b.PC() // unique-label suffix source

	// ALU filler.
	for i := 0; i < s.AluOps; i++ {
		switch i % 3 {
		case 0:
			b.Add(rVal, rVal, rIdx)
		case 1:
			b.Xor(rVal, rVal, rIdx)
		case 2:
			b.Shl(rVal, rVal, 1)
		}
	}

	// Private accesses: walk the worker's private pages with a
	// page-crossing stride so each private page is touched.
	privSize := int64(privPages * vm.PageSize)
	for i := 0; i < s.PrivateOps; i++ {
		off := (int64(i)*(vm.PageSize+8) + 16) % (privSize - 8)
		off &^= 7
		if i%2 == 0 {
			b.Store(rPriv, off, rVal)
		} else {
			b.Load(rVal, rPriv, off)
		}
	}

	// Mixed instructions: base register switches between shared and
	// private every MixedPeriod iterations.
	if s.MixedOps > 0 {
		useShared := fmt.Sprintf(".mixs%d", pc)
		done := fmt.Sprintf(".mixd%d", pc)
		b.AddImm(rMixedCtr, rMixedCtr, 1)
		b.BrImm(isa.GE, rMixedCtr, int64(s.MixedPeriod), useShared)
		b.Mov(rMixBase, rPriv) // private round
		b.Jmp(done)
		b.Label(useShared)
		b.MovImm(rMixedCtr, 0)
		b.Mov(rMixBase, rShared)
		b.Label(done)
		for i := 0; i < s.MixedOps; i++ {
			off := int64(64 + 8*i)
			if i%2 == 0 {
				b.Load(rVal, rMixBase, off)
			} else {
				b.Store(rMixBase, off, rVal)
			}
		}
	}

	// Shared accesses every SharedPeriod iterations, fine-grained
	// locking: lock ℓ guards page ℓ of the shared region.
	if s.SharedOps > 0 {
		skip := fmt.Sprintf(".shsk%d", pc)
		b.AddImm(rSharedCtr, rSharedCtr, 1)
		b.BrImm(isa.LT, rSharedCtr, int64(s.SharedPeriod), skip)
		b.MovImm(rSharedCtr, 0)
		if s.Locks > 0 {
			// Pick lock/page by loop counter: ℓ = i mod Locks,
			// computed with Div/Mul (i - (i/L)*L). The index lives in
			// R1, which the shared ops never clobber.
			b.MovImm(rTmp, int64(s.Locks))
			b.Div(isa.R1, rIdx, rTmp)
			b.Mul(isa.R1, isa.R1, rTmp)
			b.Sub(isa.R1, rIdx, isa.R1) // R1 = i mod Locks
			// Lock ids 1..Locks (0 reserved for thread creation).
			// The guest Lock instruction takes an immediate id, so
			// emit a dispatch over lock ids.
			for l := 0; l < s.Locks; l++ {
				nx := fmt.Sprintf(".lknx%d_%d", pc, l)
				b.BrImm(isa.NE, isa.R1, int64(l), nx)
				b.Lock(int64(l + 1))
				emitSharedOps(b, s, int64(l*vm.PageSize))
				b.Unlock(int64(l + 1))
				b.Label(nx)
			}
		} else {
			emitSharedOps(b, s, 0)
		}
		b.Label(skip)
	}

	// Read-only shared loads: direct-address, unsynchronized, race-free
	// (reads never conflict) but concurrently shared across all workers.
	for i := 0; i < s.ROSharedOps; i++ {
		b.LoadAbs(rVal, roBase+uint64(8+8*(i%64)))
	}

	// Racy accesses (no locks) every RacyPeriod iterations.
	if s.RacyOps > 0 {
		skip := fmt.Sprintf(".rcsk%d", pc)
		b.AddImm(rRacyCtr, rRacyCtr, 1)
		b.BrImm(isa.LT, rRacyCtr, int64(s.RacyPeriod), skip)
		b.MovImm(rRacyCtr, 0)
		for i := 0; i < s.RacyOps; i++ {
			// Store first: a single racy op must be a write, or no
			// race exists (concurrent reads are always ordered-safe).
			off := int64(8 * i)
			if i%2 == 0 {
				b.Store(rRacy, off, rVal)
			} else {
				b.Load(rVal, rRacy, off)
			}
		}
		b.Label(skip)
	}

	// Barrier phases.
	if s.BarrierPeriod > 0 {
		skip := fmt.Sprintf(".bask%d", pc)
		b.AddImm(rBarCtr, rBarCtr, 1)
		b.BrImm(isa.LT, rBarCtr, int64(s.BarrierPeriod), skip)
		b.MovImm(rBarCtr, 0)
		// Barrier syscall clobbers R0 (worker index) — save/restore it
		// on the private stack.
		b.Store(isa.SP, -8, isa.R0)
		b.Barrier(99, int64(s.Threads))
		b.Load(isa.R0, isa.SP, -8)
		b.Label(skip)
	}
}

// emitSharedOps generates the shared-region accesses at pageOff, with the
// spec's write intensity (stores first, then loads).
func emitSharedOps(b *isa.Builder, s *Spec, pageOff int64) {
	pct := s.SharedWritePct
	if pct == 0 {
		pct = 50
	}
	writes := (s.SharedOps*pct + 50) / 100
	for i := 0; i < s.SharedOps; i++ {
		off := pageOff + int64(8+8*(i%64))
		if i < writes {
			b.Store(rShared, off, rVal)
		} else {
			b.Load(rVal, rShared, off)
		}
	}
}
