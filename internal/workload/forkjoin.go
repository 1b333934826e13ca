package workload

import (
	"fmt"

	"repro/internal/isa"
)

// ForkJoinSpec describes a divide-and-conquer fork-join program — the
// Cilk-like program class the Nondeterminator (paper §1, ref [17]) checks.
// A root task recursively splits an index range in two, spawning a child
// task per half and joining both; leaves increment their disjoint slice of
// a global array (determinacy-race-free by construction).
type ForkJoinSpec struct {
	// Name labels the generated program.
	Name string
	// Elems is the array length; one 8-byte slot per element.
	Elems int
	// LeafSize stops the recursion: ranges of at most LeafSize elements
	// are processed inline.
	LeafSize int
	// RacyCounter makes every leaf increment one shared counter without
	// synchronization — parallel sibling leaves then exhibit a
	// determinacy race.
	RacyCounter bool
	// LockCounter is like RacyCounter but wraps the increment in a lock.
	// The accesses are then data-race free (FastTrack finds nothing) yet
	// still a *determinacy* race: the counter's intermediate values
	// depend on the schedule, and SP-bags — which checks determinacy,
	// not locking — reports it. This is the semantic gap §7.3 draws
	// between the two detector families.
	LockCounter bool
}

// Validate checks the spec.
func (s *ForkJoinSpec) Validate() error {
	if s.Elems < 1 || s.Elems >= 1<<24 {
		return fmt.Errorf("forkjoin %s: Elems %d out of range [1, 2^24)", s.Name, s.Elems)
	}
	if s.LeafSize < 1 {
		return fmt.Errorf("forkjoin %s: LeafSize must be positive", s.Name)
	}
	if s.RacyCounter && s.LockCounter {
		return fmt.Errorf("forkjoin %s: RacyCounter and LockCounter are exclusive", s.Name)
	}
	return nil
}

// SourceName implements Source.
func (s ForkJoinSpec) SourceName() string { return s.Name }

// Compile implements Source.
func (s ForkJoinSpec) Compile() (*isa.Program, error) { return BuildForkJoin(s) }

// Tasks returns the number of tasks the recursion will spawn (excluding
// the main thread), for test arithmetic.
func (s *ForkJoinSpec) Tasks() int {
	var count func(n int) int
	count = func(n int) int {
		if n <= s.LeafSize {
			return 1
		}
		return 1 + count(n/2) + count(n-n/2)
	}
	return count(s.Elems)
}

// Register plan for the task body. R0/R1 are clobbered by syscalls.
const (
	fjLo  = isa.R4
	fjHi  = isa.R5
	fjN   = isa.R6
	fjTmp = isa.R7
	fjA   = isa.R8
	fjV   = isa.R9
	fjMid = isa.R10
	fjArg = isa.R11
	fjIdx = isa.R2
)

// fjLockID is the lock protecting the LockCounter increment.
const fjLockID = 7

// BuildForkJoin compiles the spec. Task arguments pack the half-open range
// as lo | hi<<24 in a single register (the guest thread ABI passes one
// argument).
func BuildForkJoin(s ForkJoinSpec) (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := isa.NewBuilder(s.Name)
	arrBase := b.Global(s.Elems*8, 8)
	counter := b.GlobalU64(0)

	// --- main: spawn the root task over [0, Elems), join, exit.
	b.MovImm(fjArg, int64(s.Elems)<<24) // lo=0, hi=Elems
	b.ThreadCreate("fj_task", fjArg)
	b.Mov(fjV, isa.R0)
	b.ThreadJoin(fjV)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	// --- task body: R0 = lo | hi<<24.
	b.Label("fj_task")
	b.MovImm(fjTmp, 0xffffff)
	b.And(fjLo, isa.R0, fjTmp)
	b.Shr(fjHi, isa.R0, 24)
	b.Sub(fjN, fjHi, fjLo)
	b.BrImm(isa.GT, fjN, int64(s.LeafSize), ".fj_rec")

	// Leaf: for i in [lo, hi): arr[i]++ (disjoint slices, race-free).
	b.Mov(fjIdx, fjLo)
	b.Label(".fj_leaf_loop")
	b.Br(isa.GE, fjIdx, fjHi, ".fj_leaf_done")
	b.Shl(fjA, fjIdx, 3)
	b.MovImm(fjTmp, int64(arrBase))
	b.Add(fjA, fjA, fjTmp)
	b.Load(fjV, fjA, 0)
	b.AddImm(fjV, fjV, 1)
	b.Store(fjA, 0, fjV)
	b.AddImm(fjIdx, fjIdx, 1)
	b.Jmp(".fj_leaf_loop")
	b.Label(".fj_leaf_done")
	if s.RacyCounter || s.LockCounter {
		if s.LockCounter {
			b.Lock(fjLockID)
		}
		b.LoadAbs(fjV, counter)
		b.AddImm(fjV, fjV, 1)
		b.StoreAbs(counter, fjV)
		if s.LockCounter {
			b.Unlock(fjLockID)
		}
	}
	b.Halt()

	// Recursive case: split at mid, spawn both halves, join both.
	b.Label(".fj_rec")
	b.Shr(fjTmp, fjN, 1)
	b.Add(fjMid, fjLo, fjTmp)
	// child 1: [lo, mid)
	b.Shl(fjArg, fjMid, 24)
	b.Or(fjArg, fjArg, fjLo)
	b.ThreadCreate("fj_task", fjArg)
	b.Store(isa.SP, -8, isa.R0)
	// child 2: [mid, hi)
	b.Shl(fjArg, fjHi, 24)
	b.Or(fjArg, fjArg, fjMid)
	b.ThreadCreate("fj_task", fjArg)
	b.Store(isa.SP, -16, isa.R0)
	// join both children (order is the spawn order)
	b.Load(fjV, isa.SP, -8)
	b.ThreadJoin(fjV)
	b.Load(fjV, isa.SP, -16)
	b.ThreadJoin(fjV)
	b.Halt()

	return b.Finish()
}
