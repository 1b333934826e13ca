// Package atomicity implements an AVIO-style atomicity-violation detector
// (Lu et al., ASPLOS 2006 — reference [26] of the Aikido paper, whose
// introduction names atomicity checkers alongside race detectors as the
// shared-data analyses Aikido accelerates).
//
// The detector treats each lock-held span of a thread as an intended
// atomic region and checks the *access interleaving invariant*: if a
// thread accesses a variable twice within one region and a remote access
// interleaves between them, the triple (local₁, remote, local₂) must be
// serializable. The four unserializable patterns of AVIO:
//
//	R-W-R   two local reads see different values
//	W-W-R   local read sees a remote overwrite of the local write
//	W-R-W   remote read observes an intermediate value
//	R-W-W   remote write is lost under the local write
//
// i.e. a remote *write* is a violation unless both local accesses are
// writes, and a remote *read* is a violation only between two local
// writes.
//
// Like LockSet and FastTrack, the detector plugs into the same analysis
// seam and runs under full instrumentation or Aikido (shared pages only).
package atomicity

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// BlockShift matches the other detectors' 8-byte variable granularity.
const BlockShift = analysis.BlockShift

// Violation is one unserializable interleaving.
type Violation struct {
	Addr uint64
	// Local is the thread whose atomic region was broken; Remote is the
	// interleaving thread.
	Local, Remote guest.TID
	// Pattern is the AVIO case, e.g. "R-W-R".
	Pattern string
	// PC of the second local access (where the violation manifests).
	PC isa.PC
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("atomicity violation on %#x: %s — thread %d's region broken by thread %d (pc %d)",
		v.Addr, v.Pattern, v.Local, v.Remote, v.PC)
}

// regionInfo tracks one thread's lock-nesting state.
type regionInfo struct {
	depth  int
	region uint64 // current region id (0 = outside any region)
}

// varState is per-variable interleaving state.
type varState struct {
	// Last local access inside a region, per thread.
	lastRegion uint64
	lastTID    guest.TID
	lastWrite  bool
	// Pending remote access that interleaved since lastTID's access.
	remoteWrite bool
	remoteValid bool
	remoteTID   guest.TID
	// touched marks a variable some access has reached. An access outside
	// every region can leave the rest of the cell all-zero, so the zero
	// value alone does not tell an untouched cell from a counted one.
	touched bool
}

// Counters describes detector behaviour.
type Counters struct {
	Reads, Writes uint64
	Regions       uint64
	SyncOps       uint64
	Variables     uint64
}

// Detector is one atomicity checker instance.
type Detector struct {
	clock *stats.Clock

	threads    []regionInfo // indexed by TID
	vars       analysis.Store[varState]
	nextRegion uint64

	violations []Violation
	seen       map[uint64]struct{}

	// MaxViolations caps stored reports.
	MaxViolations int
	liveThreads   int

	C Counters
}

// defaultMaxViolations is the default findings cap.
const defaultMaxViolations = 1000

// New creates a detector charging costs to clock.
func New(clock *stats.Clock) *Detector {
	return &Detector{
		clock:         clock,
		seen:          make(map[uint64]struct{}),
		MaxViolations: defaultMaxViolations,
	}
}

// Violations returns the recorded reports sorted by address.
func (d *Detector) Violations() []Violation {
	out := make([]Violation, len(d.violations))
	copy(out, d.violations)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// region returns t's lock-nesting state, growing the per-thread table as
// needed.
func (d *Detector) region(t guest.TID) *regionInfo {
	if int(t) >= len(d.threads) {
		d.threads = append(d.threads, make([]regionInfo, int(t)+1-len(d.threads))...)
	}
	return &d.threads[t]
}

// OnAccess processes one access per 8-byte block.
func (d *Detector) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	if write {
		d.C.Writes++
	} else {
		d.C.Reads++
	}
	d.clock.Charge(stats.AnalysisFast + d.contention())
	first := addr &^ ((1 << BlockShift) - 1)
	last := (addr + uint64(size) - 1) &^ ((1 << BlockShift) - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		d.access(tid, pc, b, write)
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

func (d *Detector) access(tid guest.TID, pc isa.PC, block uint64, write bool) {
	vs := d.vars.Cell(block)
	if !vs.touched {
		vs.touched = true
		d.C.Variables++
	}
	reg := d.region(tid).region

	if vs.lastTID == tid && vs.lastRegion == reg && reg != 0 {
		// Second local access in the same region: check the triple.
		if vs.remoteValid {
			l1, r, l2 := vs.lastWrite, vs.remoteWrite, write
			if unserializable(l1, r, l2) {
				d.report(Violation{
					Addr: block, Local: tid, Remote: vs.remoteTID,
					Pattern: pattern(l1, r, l2), PC: pc,
				})
			}
		}
	} else if vs.lastTID != tid && vs.lastTID != 0 {
		// Remote access relative to the open local record: remember the
		// first conflicting interleaver.
		if !vs.remoteValid && vs.lastRegion != 0 {
			vs.remoteTID = tid
			vs.remoteWrite = write
			vs.remoteValid = true
		}
		// This thread's own access also (re)opens a record if it is in
		// a region.
		if reg != 0 {
			vs.lastTID = tid
			vs.lastRegion = reg
			vs.lastWrite = write
			vs.remoteValid = false
		}
		return
	}

	// (Re)open the local record for accesses inside a region.
	if reg != 0 {
		vs.lastTID = tid
		vs.lastRegion = reg
		vs.lastWrite = write
		vs.remoteValid = false
	} else if vs.lastTID == tid {
		// Leaving region context: close the record.
		vs.lastTID = 0
		vs.remoteValid = false
	}
}

// unserializable implements the AVIO case analysis.
func unserializable(l1Write, rWrite, l2Write bool) bool {
	if rWrite {
		return !(l1Write && l2Write) // R-W-R, W-W-R, R-W-W
	}
	return l1Write && l2Write // W-R-W
}

// pattern renders the triple like "R-W-R".
func pattern(l1, r, l2 bool) string {
	c := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return c(l1) + "-" + c(r) + "-" + c(l2)
}

// report stores one violation per variable.
func (d *Detector) report(v Violation) {
	if _, dup := d.seen[v.Addr]; dup {
		return
	}
	d.seen[v.Addr] = struct{}{}
	if len(d.violations) < d.MaxViolations {
		d.violations = append(d.violations, v)
	}
}

// --- analysis seam ----------------------------------------------------------

// OnAcquire opens (or nests into) the thread's atomic region.
func (d *Detector) OnAcquire(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(stats.AnalysisSync)
	r := d.region(tid)
	if r.depth == 0 {
		d.nextRegion++
		r.region = d.nextRegion
		d.C.Regions++
	}
	r.depth++
}

// OnRelease closes the region when the outermost lock is dropped.
func (d *Detector) OnRelease(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(stats.AnalysisSync)
	r := d.region(tid)
	if r.depth > 0 {
		r.depth--
		if r.depth == 0 {
			r.region = 0
		}
	}
}

// OnFork is region-neutral.
func (d *Detector) OnFork(parent, child guest.TID) { d.C.SyncOps++ }

// OnJoin is region-neutral.
func (d *Detector) OnJoin(joiner, child guest.TID) { d.C.SyncOps++ }

// OnBarrierWait is region-neutral.
func (d *Detector) OnBarrierWait(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnBarrierRelease is region-neutral.
func (d *Detector) OnBarrierRelease(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnSharedAccess adapts to the sharing.Analysis seam (Aikido mode).
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}

// AddThread tracks live threads for contention accounting.
func (d *Detector) AddThread(delta int) {
	d.liveThreads += delta
	if d.liveThreads < 0 {
		d.liveThreads = 0
	}
}
