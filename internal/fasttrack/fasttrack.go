// Package fasttrack implements the FastTrack happens-before race detector
// (Flanagan & Freund, PLDI 2009; paper §4), the analysis Aikido uses to
// demonstrate shared-data-analysis acceleration.
//
// The detector follows the paper's adaptation for x86-style binaries
// (§4.2): the address space is divided into fixed-size 8-byte blocks that
// play the role of "variables"; thread metadata lives per thread, lock
// metadata in a hash table, and variable metadata in shadow storage keyed
// by block address. Epochs keep the common same-epoch / ordered cases O(1);
// read vector clocks are allocated only when reads are genuinely
// concurrent.
//
// The same detector runs in two modes:
//
//   - Full: a conservative tool instruments every memory access (the
//     paper's FastTrack baseline);
//   - Aikido: only instructions that access shared pages reach OnAccess,
//     and metadata is materialized lazily for that data only.
//
// The mode is the caller's choice of which accesses to feed in; the
// algorithm is identical, which is exactly the paper's claim that Aikido
// accelerates an existing analysis without changing it.
package fasttrack

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// BlockShift is log2 of the "variable" granularity (8-byte blocks, §4.2).
const BlockShift = 3

// BlockAddr returns the variable block containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ ((1 << BlockShift) - 1) }

// AccessKind classifies the two sides of a reported race.
type AccessKind uint8

// Race kinds, named prior-access/current-access.
const (
	WriteWrite AccessKind = iota
	ReadWrite             // prior read, racing write
	WriteRead             // prior write, racing read
)

// String names the race kind.
func (k AccessKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case ReadWrite:
		return "read-write"
	case WriteRead:
		return "write-read"
	}
	return "race?"
}

// Race is one detected data race.
type Race struct {
	Addr uint64 // block address
	Kind AccessKind
	// Prior is the earlier access (epoch at which it happened, and the
	// PC that performed it); Current is the racing access.
	PriorTID   vclock.TID
	PriorPC    isa.PC
	CurrentTID vclock.TID
	CurrentPC  isa.PC
}

// String formats the race report.
func (r Race) String() string {
	return fmt.Sprintf("%s race on %#x: thread %d (pc %d) vs thread %d (pc %d)",
		r.Kind, r.Addr, r.PriorTID, r.PriorPC, r.CurrentTID, r.CurrentPC)
}

// varState is the per-variable (8-byte block) metadata: FastTrack's W epoch
// and adaptive R representation (epoch, or vector clock when reads are
// concurrent). It is deliberately pointer-free: the paged store allocates
// chunks of inline varStates, and keeping them noscan means the GC never
// walks shadow metadata. The rare read vector clock therefore lives in the
// detector's rvcs arena, referenced by index (0 = none).
type varState struct {
	w vclock.Epoch
	r vclock.Epoch
	// PCs of the last write and last read, for race reports.
	wpc isa.PC
	rpc isa.PC
	// rvcIdx ≠ 0 ⇒ read vector clock in use (r ignored): the VC is
	// Detector.rvcs[rvcIdx].
	rvcIdx int32
}

// Counters describes detector behaviour (FastTrack's fast/slow path claims
// and metadata footprint).
type Counters struct {
	// Reads/Writes processed.
	Reads  uint64
	Writes uint64
	// SameEpoch counts O(1) same-epoch fast paths; OrderedEpoch counts
	// O(1) epoch-ordered paths; SlowPath counts vector-clock operations
	// (read promotion or read-VC scans).
	SameEpoch    uint64
	OrderedEpoch uint64
	SlowPath     uint64
	// ReadVCsAllocated counts promotions of read epochs to vector clocks.
	ReadVCsAllocated uint64
	// SyncOps counts lock/fork/join/barrier events processed.
	SyncOps uint64
	// Variables counts materialized variable metadata blocks.
	Variables uint64
}

// barrier accumulates happens-before state for one guest barrier id.
type barrier struct {
	vc       vclock.VC
	waiting  int
	released int
}

// Detector is one FastTrack instance.
type Detector struct {
	clock *stats.Clock
	costs stats.CostModel

	// threads is a dense slice indexed by the (small) TID: the per-access
	// clock fetch is a bounds-checked load, not a map probe.
	threads []vclock.VC
	locks   map[int64]vclock.VC
	vars    varStore
	bars    map[int64]*barrier

	// rvcs is the read-vector-clock arena: varStates reference entries by
	// index so the shadow chunks themselves stay pointer-free. Slot 0 is
	// reserved as "no VC"; freed slots are recycled through freeRvcs.
	rvcs     []vclock.VC
	freeRvcs []int32

	races []Race
	seen  map[raceKey]struct{}

	// MaxRaces caps recorded races (reports stay useful on very racy
	// programs); further races are counted but not stored.
	MaxRaces int
	// Dropped counts races beyond MaxRaces.
	Dropped uint64

	// liveThreads tracks concurrently live threads for the metadata
	// contention charge (AnalysisContention × (liveThreads-1) per
	// analyzed access). Maintained via AddThread from the guest hooks.
	liveThreads int

	C Counters
}

type raceKey struct {
	addr     uint64
	kind     AccessKind
	pa, pb   isa.PC
	tidA, tB vclock.TID
}

// defaultMaxRaces is the default findings cap.
const defaultMaxRaces = 1000

// New creates a detector charging analysis costs to clock.
func New(clock *stats.Clock, costs stats.CostModel) *Detector {
	return &Detector{
		clock:    clock,
		costs:    costs,
		locks:    make(map[int64]vclock.VC),
		vars:     newPagedVarStore(),
		bars:     make(map[int64]*barrier),
		seen:     make(map[raceKey]struct{}),
		rvcs:     make([]vclock.VC, 1), // slot 0 = "no read VC"
		MaxRaces: defaultMaxRaces,
	}
}

// newRvc stores v in the arena and returns its index.
func (d *Detector) newRvc(v vclock.VC) int32 {
	if n := len(d.freeRvcs); n > 0 {
		idx := d.freeRvcs[n-1]
		d.freeRvcs = d.freeRvcs[:n-1]
		d.rvcs[idx] = v
		return idx
	}
	d.rvcs = append(d.rvcs, v)
	return int32(len(d.rvcs) - 1)
}

// dropRvc releases arena slot idx for reuse.
func (d *Detector) dropRvc(idx int32) {
	d.rvcs[idx] = nil
	d.freeRvcs = append(d.freeRvcs, idx)
}

// UseReferenceVarStore swaps the paged shadow table for the retained
// map-based reference implementation. Equivalence tests call it on a fresh
// detector and assert that whole-program results are identical; it must be
// called before any access is processed.
func (d *Detector) UseReferenceVarStore() {
	if d.C.Reads+d.C.Writes != 0 {
		panic("fasttrack: UseReferenceVarStore after accesses were processed")
	}
	d.vars = newMapVarStore()
}

// tvc returns thread t's vector clock, initializing a new thread at clock 1
// (FastTrack initializes C_t = ⊥[t := 1]).
func (d *Detector) tvc(t vclock.TID) vclock.VC {
	if int(t) < len(d.threads) {
		if v := d.threads[t]; v != nil {
			return v
		}
	}
	v := vclock.VC{}.Set(t, 1)
	d.setTVC(t, v)
	return v
}

func (d *Detector) setTVC(t vclock.TID, v vclock.VC) {
	if int(t) >= len(d.threads) {
		nt := make([]vclock.VC, int(t)+1)
		copy(nt, d.threads)
		d.threads = nt
	}
	d.threads[t] = v
}

// variable returns the metadata cell for block, materializing it on first
// touch (lazy, as Aikido requires: "metadata is not maintained for memory"
// until needed).
func (d *Detector) variable(block uint64) *varState {
	vs, fresh := d.vars.lookup(block)
	if fresh {
		d.C.Variables++
	}
	return vs
}

// report records a race, deduplicating on (block, kind, PCs, threads).
func (d *Detector) report(r Race) {
	k := raceKey{r.Addr, r.Kind, r.PriorPC, r.CurrentPC, r.PriorTID, r.CurrentTID}
	if _, dup := d.seen[k]; dup {
		return
	}
	d.seen[k] = struct{}{}
	if len(d.races) >= d.MaxRaces {
		d.Dropped++
		return
	}
	d.races = append(d.races, r)
}

// Races returns the recorded races sorted by block address then kind.
func (d *Detector) Races() []Race {
	out := make([]Race, len(d.races))
	copy(out, d.races)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// AddThread adjusts the live-thread count (delta ±1); wired to the guest's
// thread start/exit hooks by the system assembly.
func (d *Detector) AddThread(delta int) {
	d.liveThreads += delta
	if d.liveThreads < 0 {
		d.liveThreads = 0
	}
}

// contentionScale[n] ≈ n^1.3 for n extra sharers (precomputed; metadata
// lines degrade superlinearly as more cores fight over them).
var contentionScale = func() [65]uint64 {
	var t [65]uint64
	for n := 1; n < len(t); n++ {
		t[n] = uint64(math.Pow(float64(n), 1.3) + 0.5)
	}
	return t
}()

// contention returns the per-access metadata contention charge.
func (d *Detector) contention() uint64 {
	n := d.liveThreads - 1
	if n <= 0 {
		return 0
	}
	if n >= len(contentionScale) {
		n = len(contentionScale) - 1
	}
	return d.costs.AnalysisContention * contentionScale[n]
}

// OnAccess processes one memory access of size bytes at addr by thread tid
// executing pc. Accesses spanning multiple 8-byte blocks are checked per
// block (x86 overlapping-access handling, §4.2).
func (d *Detector) OnAccess(gtid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.clock.Charge(d.contention())
	t := vclock.TID(gtid)
	first := BlockAddr(addr)
	last := BlockAddr(addr + uint64(size) - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		if write {
			d.write(t, pc, b)
		} else {
			d.read(t, pc, b)
		}
	}
}

// write implements FastTrack's write rules.
func (d *Detector) write(t vclock.TID, pc isa.PC, block uint64) {
	d.C.Writes++
	vs := d.variable(block)
	ct := d.tvc(t)
	e := ct.EpochOf(t)

	// WRITE SAME EPOCH: repeated write by the same thread at the same
	// logical time — the dominant case.
	if vs.w == e {
		d.C.SameEpoch++
		d.clock.Charge(d.costs.AnalysisFast)
		return
	}

	// Write-write check.
	if vs.w != vclock.None && !vclock.HappensBefore(vs.w, ct) {
		d.report(Race{Addr: block, Kind: WriteWrite,
			PriorTID: vs.w.TID(), PriorPC: vs.wpc, CurrentTID: t, CurrentPC: pc})
	}
	// Read-write check: against the read epoch or the whole read VC.
	if vs.rvcIdx != 0 {
		d.C.SlowPath++
		d.clock.Charge(d.costs.AnalysisSlow)
		rvc := d.rvcs[vs.rvcIdx]
		if !rvc.Leq(ct) {
			d.report(Race{Addr: block, Kind: ReadWrite,
				PriorTID: d.someConcurrentReader(rvc, ct), PriorPC: vs.rpc,
				CurrentTID: t, CurrentPC: pc})
		}
		// WRITE SHARED: reads collapse back to exclusive tracking.
		d.dropRvc(vs.rvcIdx)
		vs.rvcIdx = 0
		vs.r = vclock.None
	} else {
		d.C.OrderedEpoch++
		d.clock.Charge(d.costs.AnalysisFast)
		if vs.r != vclock.None && !vclock.HappensBefore(vs.r, ct) {
			d.report(Race{Addr: block, Kind: ReadWrite,
				PriorTID: vs.r.TID(), PriorPC: vs.rpc, CurrentTID: t, CurrentPC: pc})
		}
	}
	vs.w = e
	vs.wpc = pc
}

// read implements FastTrack's read rules.
func (d *Detector) read(t vclock.TID, pc isa.PC, block uint64) {
	d.C.Reads++
	vs := d.variable(block)
	ct := d.tvc(t)
	e := ct.EpochOf(t)

	// READ SAME EPOCH.
	if vs.r == e && vs.rvcIdx == 0 {
		d.C.SameEpoch++
		d.clock.Charge(d.costs.AnalysisFast)
		return
	}
	if vs.rvcIdx != 0 && d.rvcs[vs.rvcIdx].Get(t) == ct.Get(t) {
		d.C.SameEpoch++
		d.clock.Charge(d.costs.AnalysisFast)
		return
	}

	// Write-read check.
	if vs.w != vclock.None && !vclock.HappensBefore(vs.w, ct) {
		d.report(Race{Addr: block, Kind: WriteRead,
			PriorTID: vs.w.TID(), PriorPC: vs.wpc, CurrentTID: t, CurrentPC: pc})
	}

	switch {
	case vs.rvcIdx != 0:
		// READ SHARED: update this thread's slot in the read VC.
		d.C.SlowPath++
		d.clock.Charge(d.costs.AnalysisSlow)
		d.rvcs[vs.rvcIdx] = d.rvcs[vs.rvcIdx].Set(t, ct.Get(t))
	case vs.r == vclock.None || vclock.HappensBefore(vs.r, ct):
		// READ EXCLUSIVE: the previous read is ordered before us.
		d.C.OrderedEpoch++
		d.clock.Charge(d.costs.AnalysisFast)
		vs.r = e
	default:
		// READ SHARE: concurrent reads — promote to a vector clock.
		d.C.SlowPath++
		d.C.ReadVCsAllocated++
		d.clock.Charge(d.costs.AnalysisSlow)
		rvc := vclock.VC{}.Set(vs.r.TID(), vs.r.Clock())
		rvc = rvc.Set(t, ct.Get(t))
		vs.rvcIdx = d.newRvc(rvc)
		vs.r = vclock.None
	}
	vs.rpc = pc
}

// someConcurrentReader picks a thread from rvc whose entry is not covered
// by ct (for race attribution).
func (d *Detector) someConcurrentReader(rvc, ct vclock.VC) vclock.TID {
	for i := 0; i < len(rvc); i++ {
		t := vclock.TID(i)
		if rvc.Get(t) > ct.Get(t) {
			return t
		}
	}
	return 0
}

// --- synchronization hooks ------------------------------------------------

// OnAcquire processes a lock acquire: C_t ⊔= L_m.
func (d *Detector) OnAcquire(gtid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	t := vclock.TID(gtid)
	if lm, ok := d.locks[lock]; ok {
		d.setTVC(t, d.tvc(t).Join(lm))
	} else {
		d.tvc(t)
	}
}

// OnRelease processes a lock release: L_m := C_t; C_t[t]++.
func (d *Detector) OnRelease(gtid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	t := vclock.TID(gtid)
	ct := d.tvc(t)
	d.locks[lock] = ct.Copy()
	d.setTVC(t, ct.Tick(t))
}

// OnFork processes thread creation: C_child ⊔= C_parent; C_parent[p]++.
func (d *Detector) OnFork(parent, child guest.TID) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	p, c := vclock.TID(parent), vclock.TID(child)
	d.setTVC(c, d.tvc(c).Join(d.tvc(p)))
	d.setTVC(p, d.tvc(p).Tick(p))
}

// OnJoin processes a completed join: C_joiner ⊔= C_child.
func (d *Detector) OnJoin(joiner, child guest.TID) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	j, c := vclock.TID(joiner), vclock.TID(child)
	d.setTVC(j, d.tvc(j).Join(d.tvc(c)))
}

// OnBarrierWait records a thread's arrival at a barrier (its clock joins
// the barrier's accumulator).
func (d *Detector) OnBarrierWait(gtid guest.TID, id int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	t := vclock.TID(gtid)
	b := d.bars[id]
	if b == nil {
		b = &barrier{}
		d.bars[id] = b
	}
	b.vc = b.vc.Join(d.tvc(t))
	b.waiting++
}

// OnBarrierRelease applies the accumulated barrier clock to a released
// thread; when every waiter has been released the accumulator resets so the
// barrier can be reused.
func (d *Detector) OnBarrierRelease(gtid guest.TID, id int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	t := vclock.TID(gtid)
	b := d.bars[id]
	if b == nil {
		return
	}
	d.setTVC(t, d.tvc(t).Join(b.vc).Tick(t))
	b.released++
	if b.released >= b.waiting {
		d.bars[id] = &barrier{}
	}
}

// OnSharedAccess adapts the detector to the sharing.Analysis interface used
// in Aikido mode.
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}
