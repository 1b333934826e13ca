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
	"fmt"
	"sort"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// BlockShift matches FastTrack's variable granularity (8-byte blocks), so
// the two detectors are comparable access-for-access.
const BlockShift = 3

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

// lockSet is an immutable sorted set of lock ids; sets are interned so the
// common case (same set as before) is a pointer comparison, mirroring
// Eraser's lockset-index caching.
type lockSet struct {
	ids []int64
}

func (ls *lockSet) contains(id int64) bool {
	i := sort.Search(len(ls.ids), func(i int) bool { return ls.ids[i] >= id })
	return i < len(ls.ids) && ls.ids[i] == id
}

// key renders a canonical map key for interning.
func (ls *lockSet) keyString() string {
	return fmt.Sprint(ls.ids)
}

// varState is the per-variable Eraser metadata.
type varState struct {
	state State
	owner guest.TID
	cv    *lockSet // candidate lockset C(v)
}

// Counters describes detector behaviour.
type Counters struct {
	Reads, Writes uint64
	Refinements   uint64 // lockset intersections performed
	SyncOps       uint64
	Variables     uint64
}

// Detector is one Eraser LockSet instance.
type Detector struct {
	clock *stats.Clock
	costs stats.CostModel

	held   map[guest.TID]*lockSet // locks_held(t)
	vars   map[uint64]*varState
	intern map[string]*lockSet
	empty  *lockSet

	warnings []Warning
	seen     map[uint64]struct{} // one warning per variable, as in Eraser

	// MaxWarnings caps stored warnings.
	MaxWarnings int
	liveThreads int

	C Counters
}

// defaultMaxWarnings is the default findings cap.
const defaultMaxWarnings = 1000

// New creates a detector charging analysis costs to clock.
func New(clock *stats.Clock, costs stats.CostModel) *Detector {
	d := &Detector{
		clock:       clock,
		costs:       costs,
		held:        make(map[guest.TID]*lockSet),
		vars:        make(map[uint64]*varState),
		intern:      make(map[string]*lockSet),
		seen:        make(map[uint64]struct{}),
		MaxWarnings: defaultMaxWarnings,
	}
	d.empty = d.internSet(nil)
	return d
}

func (d *Detector) internSet(ids []int64) *lockSet {
	ls := &lockSet{ids: ids}
	k := ls.keyString()
	if got, ok := d.intern[k]; ok {
		return got
	}
	d.intern[k] = ls
	return ls
}

// heldBy returns locks_held(t).
func (d *Detector) heldBy(t guest.TID) *lockSet {
	if ls, ok := d.held[t]; ok {
		return ls
	}
	return d.empty
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
	return d.costs.AnalysisContention * uint64(n)
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
	vs, ok := d.vars[block]
	if !ok {
		vs = &varState{state: Virgin}
		d.vars[block] = vs
		d.C.Variables++
	}

	switch vs.state {
	case Virgin:
		vs.state = Exclusive
		vs.owner = tid
		vs.cv = d.heldBy(tid)
		d.clock.Charge(d.costs.AnalysisFast)
		return
	case Exclusive:
		if tid == vs.owner {
			d.clock.Charge(d.costs.AnalysisFast)
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
	d.clock.Charge(d.costs.AnalysisSlow)
	vs.cv = d.intersect(vs.cv, d.heldBy(tid))
	if vs.state == SharedModified && len(vs.cv.ids) == 0 {
		d.report(Warning{Addr: block, TID: tid, PC: pc, Write: write})
	}
}

// intersect returns the interned intersection of two locksets.
func (d *Detector) intersect(a, b *lockSet) *lockSet {
	if a == b {
		return a
	}
	if len(a.ids) == 0 || len(b.ids) == 0 {
		return d.empty
	}
	var out []int64
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			out = append(out, a.ids[i])
			i++
			j++
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
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
	if len(d.warnings) < d.MaxWarnings {
		d.warnings = append(d.warnings, w)
	}
}

// --- synchronization hooks (sharing.Analysis + guest hook seam) ------------

// OnAcquire adds the lock to locks_held(t).
func (d *Detector) OnAcquire(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	cur := d.heldBy(tid)
	if cur.contains(lock) {
		return
	}
	ids := make([]int64, 0, len(cur.ids)+1)
	ids = append(ids, cur.ids...)
	ids = append(ids, lock)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d.held[tid] = d.internSet(ids)
}

// OnRelease removes the lock from locks_held(t).
func (d *Detector) OnRelease(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	cur := d.heldBy(tid)
	if !cur.contains(lock) {
		return
	}
	ids := make([]int64, 0, len(cur.ids)-1)
	for _, id := range cur.ids {
		if id != lock {
			ids = append(ids, id)
		}
	}
	d.held[tid] = d.internSet(ids)
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
