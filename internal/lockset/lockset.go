// Package lockset implements the Eraser LockSet data-race detector
// (Savage et al., TOCS 1997), the classic alternative the paper contrasts
// with happens-before detection in §7.3: LockSet checks the *locking
// discipline* — every shared variable must be consistently protected by
// some lock — rather than the happens-before order of one execution. It
// can therefore flag races that did not manifest in the observed schedule,
// at the price of false positives on lock-free synchronization.
//
// Including it demonstrates the paper's framing of Aikido as an
// analysis-agnostic framework: LockSet plugs into exactly the same
// sharing.Analysis seam as FastTrack, and runs in both full-instrumentation
// and Aikido (shared-only) configurations.
//
// The implementation follows the original algorithm: per-variable candidate
// lockset C(v) refined by intersection on each access, with the ownership
// state machine (Virgin → Exclusive → Shared → Shared-Modified) that delays
// refinement until a variable is genuinely shared.
package lockset

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// BlockShift matches FastTrack's variable granularity (8-byte blocks), so
// the two detectors are comparable access-for-access.
const BlockShift = analysis.BlockShift

// State is the Eraser ownership state of one variable.
type State uint8

// Ownership states.
const (
	// Virgin: never accessed.
	Virgin State = iota
	// Exclusive: accessed by exactly one thread so far; no refinement.
	Exclusive
	// Shared: read by multiple threads, never written since sharing;
	// refinement runs but empty locksets are not reported.
	Shared
	// SharedModified: written while shared; empty lockset ⇒ report.
	SharedModified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "state?"
}

// Warning is one locking-discipline violation.
type Warning struct {
	Addr uint64 // variable block address
	TID  guest.TID
	PC   isa.PC
	// Write reports whether the violating access was a store.
	Write bool
}

// String formats the warning.
func (w Warning) String() string {
	kind := "read"
	if w.Write {
		kind = "write"
	}
	return fmt.Sprintf("lockset violation on %#x: unprotected %s by thread %d (pc %d)",
		w.Addr, kind, w.TID, w.PC)
}

// setID names an interned lockset by its index in Detector.sets — Eraser's
// lockset index. Variable cells and per-thread held sets carry the index,
// not a pointer, so the paged variable store stays pointer-free and equal
// sets compare as equal integers.
type setID int32

// emptySet is the index of the empty lockset, interned first.
const emptySet setID = 0

// varState is the per-variable Eraser metadata. The zero value is a
// Virgin variable, so an untouched cell of the paged store is recognizable
// by its state.
type varState struct {
	state State
	owner guest.TID
	cv    setID // candidate lockset C(v)
}

// Counters describes detector behaviour.
type Counters struct {
	Reads, Writes uint64
	Refinements   uint64 // lockset intersections performed
	SyncOps       uint64
	Variables     uint64
}

// Detector is one Eraser LockSet instance. Its OnExit is NoSync's no-op:
// Eraser has no thread-lifetime notion beyond held locks, which die with
// the thread's events. Its other synchronization hooks are its own.
type Detector struct {
	analysis.NoSync

	clock *stats.Clock

	held []setID // locks_held(t), indexed by TID; emptySet past the end
	vars analysis.Store[varState]
	// sets are the interned locksets by index, each an immutable sorted
	// slice of lock ids; intern finds a set's index from its binary key
	// (the ids' little-endian bytes). key and ids are scratch buffers for
	// building a candidate set and its key.
	sets   [][]int64
	intern map[string]setID
	key    []byte
	ids    []int64

	warnings []Warning
	seen     map[uint64]struct{} // one warning per variable, as in Eraser

	liveThreads int

	C Counters
}

// maxWarnings caps stored warnings.
const maxWarnings = 1000

// New creates a detector charging analysis costs to clock.
func New(clock *stats.Clock) *Detector {
	d := &Detector{
		clock:  clock,
		intern: make(map[string]setID),
		seen:   make(map[uint64]struct{}),
	}
	d.internSet(nil) // emptySet
	return d
}

// internSet returns the index of the set with the given sorted ids,
// interning a copy on first sight. Looking up an existing set allocates
// nothing: the map index converts the key buffer without copying it.
func (d *Detector) internSet(ids []int64) setID {
	d.key = d.key[:0]
	for _, id := range ids {
		d.key = binary.LittleEndian.AppendUint64(d.key, uint64(id))
	}
	if got, ok := d.intern[string(d.key)]; ok {
		return got
	}
	id := setID(len(d.sets))
	d.sets = append(d.sets, slices.Clone(ids))
	d.intern[string(d.key)] = id
	return id
}

// heldBy returns locks_held(t).
func (d *Detector) heldBy(t guest.TID) setID {
	if int(t) < len(d.held) {
		return d.held[t]
	}
	return emptySet
}

// setHeld records locks_held(t), growing the per-thread table as needed.
func (d *Detector) setHeld(t guest.TID, s setID) {
	if int(t) >= len(d.held) {
		d.held = append(d.held, make([]setID, int(t)+1-len(d.held))...)
	}
	d.held[t] = s
}

// plus returns the index of s ∪ {lock}. The candidate set is built in the
// scratch buffer, so an acquire whose result was interned before
// allocates nothing.
func (d *Detector) plus(s setID, lock int64) setID {
	ids := d.sets[s]
	i, found := slices.BinarySearch(ids, lock)
	if found {
		return s
	}
	d.ids = slices.Insert(append(d.ids[:0], ids...), i, lock)
	return d.internSet(d.ids)
}

// minus returns the index of s \ {lock}, allocation-free like plus.
func (d *Detector) minus(s setID, lock int64) setID {
	ids := d.sets[s]
	i, found := slices.BinarySearch(ids, lock)
	if !found {
		return s
	}
	d.ids = slices.Delete(append(d.ids[:0], ids...), i, i+1)
	return d.internSet(d.ids)
}

// Warnings returns the recorded violations sorted by address.
func (d *Detector) Warnings() []Warning {
	out := make([]Warning, len(d.warnings))
	copy(out, d.warnings)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// AddThread tracks live threads for contention accounting (same model as
// FastTrack's).
func (d *Detector) AddThread(delta int) {
	d.liveThreads += delta
	if d.liveThreads < 0 {
		d.liveThreads = 0
	}
}

func (d *Detector) contention() uint64 {
	if d.liveThreads <= 1 {
		return 0
	}
	n := d.liveThreads - 1
	if n > 8 {
		n = 8
	}
	return stats.AnalysisContention * uint64(n)
}

// OnAccess processes one access, per 8-byte block.
func (d *Detector) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.clock.Charge(d.contention())
	first := addr &^ ((1 << BlockShift) - 1)
	last := (addr + uint64(size) - 1) &^ ((1 << BlockShift) - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		d.access(tid, pc, b, write)
	}
}

// access implements the Eraser state machine for one variable.
func (d *Detector) access(tid guest.TID, pc isa.PC, block uint64, write bool) {
	if write {
		d.C.Writes++
	} else {
		d.C.Reads++
	}
	vs := d.vars.Cell(block)

	switch vs.state {
	case Virgin:
		d.C.Variables++
		vs.state = Exclusive
		vs.owner = tid
		vs.cv = d.heldBy(tid)
		d.clock.Charge(stats.AnalysisFast)
		return
	case Exclusive:
		if tid == vs.owner {
			d.clock.Charge(stats.AnalysisFast)
			return
		}
		// Second thread: start refinement from the current holder set.
		if write {
			vs.state = SharedModified
		} else {
			vs.state = Shared
		}
	case Shared:
		if write {
			vs.state = SharedModified
		}
	case SharedModified:
		// stays
	}

	// Refine C(v) ∩= locks_held(t).
	d.C.Refinements++
	d.clock.Charge(stats.AnalysisSlow)
	vs.cv = d.intersect(vs.cv, d.heldBy(tid))
	if vs.state == SharedModified && vs.cv == emptySet {
		d.report(Warning{Addr: block, TID: tid, PC: pc, Write: write})
	}
}

// intersect returns the interned intersection of two locksets.
func (d *Detector) intersect(a, b setID) setID {
	if a == b {
		return a
	}
	if a == emptySet || b == emptySet {
		return emptySet
	}
	x, y := d.sets[a], d.sets[b]
	out := d.ids[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			out = append(out, x[i])
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	d.ids = out
	return d.internSet(out)
}

// warned reports whether a violation was already recorded for block (and
// further reports on it would be suppressed).
func (d *Detector) warned(block uint64) bool {
	_, ok := d.seen[block]
	return ok
}

// report records one warning per variable (Eraser reports the first
// violation and suppresses repeats).
func (d *Detector) report(w Warning) {
	if _, dup := d.seen[w.Addr]; dup {
		return
	}
	d.seen[w.Addr] = struct{}{}
	if len(d.warnings) < maxWarnings {
		d.warnings = append(d.warnings, w)
	}
}

// --- synchronization hooks (sharing.Analysis + guest hook seam) ------------

// OnAcquire adds the lock to locks_held(t).
func (d *Detector) OnAcquire(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(stats.AnalysisSync)
	d.setHeld(tid, d.plus(d.heldBy(tid), lock))
}

// OnRelease removes the lock from locks_held(t).
func (d *Detector) OnRelease(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(stats.AnalysisSync)
	d.setHeld(tid, d.minus(d.heldBy(tid), lock))
}

// OnFork is a no-op: Eraser has no happens-before notion. Present so the
// detector satisfies the same hook seam as FastTrack.
func (d *Detector) OnFork(parent, child guest.TID) { d.C.SyncOps++ }

// OnJoin is a no-op (see OnFork).
func (d *Detector) OnJoin(joiner, child guest.TID) { d.C.SyncOps++ }

// OnBarrierWait is a no-op (see OnFork).
func (d *Detector) OnBarrierWait(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnBarrierRelease is a no-op (see OnFork).
func (d *Detector) OnBarrierRelease(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnSharedAccess adapts the detector to the sharing.Analysis interface
// (Aikido mode).
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}
