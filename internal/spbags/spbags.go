// Package spbags implements an SP-bags determinacy-race detector in the
// style of the Nondeterminator (paper §1 and §7.3, refs [17] and [2]).
//
// The paper motivates Aikido's no-false-positives/controlled-false-negatives
// design by contrasting it with this class of tool: the Nondeterminator
// executes a fork-join (Cilk-like) program *serially* in depth-first order
// and reasons about which already-seen accesses could have run in parallel
// with the current task under some legal schedule. Its verdict is therefore
// schedule independent — "it can guarantee that a lock-free Cilk program
// will execute race free (on all runs for a particular input) provided that
// it has no false negatives" — the property filtering/sampling detectors
// give up.
//
// The algorithm is Feng & Leiserson's SP-bags, adapted from Cilk's
// spawn/sync to explicit thread joins:
//
//   - every task owns an S-bag (descendants that are serial-before its
//     current point) maintained in a disjoint-set forest;
//   - when a spawned child returns (serial DFS runs it to completion at
//     the spawn point), its accumulated bag becomes a *pending* bag,
//     parallel with everything the parent does next;
//   - when the parent joins the child, the pending bag is merged into the
//     parent's S-bag — the child's work is now serial-before the parent;
//   - when a task exits, its S-bag and any never-joined pending children
//     collapse into its own pending bag.
//
// An access races with a recorded earlier access iff the earlier task's
// bag is currently tagged parallel. Each 8-byte location carries a last
// writer and one representative reader, per the original algorithm.
//
// Scope: strict fork-join programs (every thread joined by its spawner or
// an ancestor), no lock-based synchronization — exactly the Cilk subset the
// Nondeterminator handles. Locks are ignored; a lock-"protected" conflict
// is still reported (that is the tool's semantics: determinacy, not data
// races). The detector is a registry analysis ("spbags") and runs only
// inside a core.System, whose process its factory switches to the serial
// depth-first schedule. A program outside the subset can deadlock there:
// a barrier of two or more threads never fills when each spawned child
// runs to completion before its creator resumes, and the run ends in the
// engine's deadlock error.
package spbags

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// bagKind tags a disjoint-set root.
type bagKind uint8

const (
	// bagS: serial-before the currently executing task.
	bagS bagKind = iota
	// bagP: could run in parallel with the currently executing task.
	bagP
)

// node is a disjoint-set element (one per task).
type node struct {
	parent *node
	rank   int
	kind   bagKind // valid at roots only
	task   guest.TID
}

// find performs path-halving find.
func (n *node) find() *node {
	for n.parent != nil {
		if n.parent.parent != nil {
			n.parent = n.parent.parent
		}
		n = n.parent
	}
	return n
}

// union merges two roots, preserving the kind of the absorbing set.
func union(into, from *node, kind bagKind) *node {
	ri, rf := into.find(), from.find()
	if ri == rf {
		ri.kind = kind
		return ri
	}
	if ri.rank < rf.rank {
		ri, rf = rf, ri
	}
	rf.parent = ri
	if ri.rank == rf.rank {
		ri.rank++
	}
	ri.kind = kind
	return ri
}

// access is one recorded shadow entry.
type access struct {
	task guest.TID
	pc   isa.PC
}

// cell is the shadow state of one 8-byte location.
type cell struct {
	writer access
	reader access
}

// Race is one detected determinacy race.
type Race struct {
	Addr uint64
	// Prev is the earlier (recorded) access; Cur the current one.
	Prev, Cur access
	PrevWrite bool
	CurWrite  bool
}

// String renders the race report.
func (r Race) String() string {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("determinacy race at %#x: %s by task %d (pc %d) ∥ %s by task %d (pc %d)",
		r.Addr, kind(r.PrevWrite), r.Prev.task, r.Prev.pc, kind(r.CurWrite), r.Cur.task, r.Cur.pc)
}

// Counters summarizes detector work.
type Counters struct {
	Reads, Writes uint64
	Tasks         uint64
	Joins         uint64
	Races         uint64
}

// Detector is one SP-bags instance. It is driven by a serial depth-first
// execution (guest.SchedSerialDFS); feeding it events from a parallel
// schedule is a misuse and panics on structural violations. Locks and
// barriers are outside its model, so it keeps NoSync's no-op hooks for
// them.
type Detector struct {
	analysis.NoSync
	nodes map[guest.TID]*node
	// pending maps a completed-but-unjoined task to its bag root.
	pending map[guest.TID]*node
	// children tracks live fork-tree edges for exit-time collapsing.
	children map[guest.TID][]guest.TID
	parent   map[guest.TID]guest.TID

	shadow map[uint64]*cell
	races  []Race
	// MaxRaces caps stored reports (further races are counted only).
	MaxRaces int

	// clock bills the detector's work like every other hosted
	// analysis's.
	clock *stats.Clock

	C Counters
}

// defaultMaxRaces is the default findings cap.
const defaultMaxRaces = 100

// New creates a detector whose root task is the main thread (TID 1),
// billing its work to clock.
func New(clock *stats.Clock) *Detector {
	d := &Detector{
		nodes:    make(map[guest.TID]*node),
		pending:  make(map[guest.TID]*node),
		children: make(map[guest.TID][]guest.TID),
		parent:   make(map[guest.TID]guest.TID),
		shadow:   make(map[uint64]*cell),
		MaxRaces: defaultMaxRaces,
		clock:    clock,
	}
	d.nodes[1] = &node{kind: bagS, task: 1}
	d.C.Tasks = 1
	return d
}

// OnFork registers a spawned task: it starts with a fresh S-bag of its own.
func (d *Detector) OnFork(creator, child guest.TID) {
	d.clock.Charge(stats.AnalysisSync)
	if _, dup := d.nodes[child]; dup {
		panic(fmt.Sprintf("spbags: task %d forked twice", child))
	}
	d.nodes[child] = &node{kind: bagS, task: child}
	d.parent[child] = creator
	d.children[creator] = append(d.children[creator], child)
	d.C.Tasks++
}

// OnExit collapses the exiting task's S-bag (plus any never-joined pending
// children) into a pending bag: until someone joins it, all of its work is
// parallel with whatever runs next.
func (d *Detector) OnExit(task guest.TID) {
	d.clock.Charge(stats.AnalysisSync)
	n, ok := d.nodes[task]
	if !ok {
		panic(fmt.Sprintf("spbags: exit of unknown task %d", task))
	}
	root := n.find()
	for _, c := range d.children[task] {
		if pb, ok := d.pending[c]; ok {
			delete(d.pending, c)
			root = union(root, pb, bagP)
		}
	}
	delete(d.children, task)
	root.kind = bagP
	d.pending[task] = root
}

// OnJoin merges the joined child's pending bag into the joiner's S-bag:
// the child's work is now serial-before everything the joiner does next.
func (d *Detector) OnJoin(joiner, child guest.TID) {
	d.clock.Charge(stats.AnalysisSync)
	pb, ok := d.pending[child]
	if !ok {
		// Join of a task whose bag already collapsed upward (joined via
		// an ancestor); nothing left to order.
		return
	}
	delete(d.pending, child)
	jn, ok := d.nodes[joiner]
	if !ok {
		panic(fmt.Sprintf("spbags: join by unknown task %d", joiner))
	}
	union(jn, pb, bagS)
	d.C.Joins++
}

// parallelWith reports whether the recorded access could run in parallel
// with the currently executing task: exactly when its bag is tagged P.
func (d *Detector) parallelWith(a access) bool {
	if a.task == guest.NoTID {
		return false
	}
	n, ok := d.nodes[a.task]
	if !ok {
		return false
	}
	return n.find().kind == bagP
}

// report records one race (capped).
func (d *Detector) report(addr uint64, prev access, prevWrite bool, cur access, curWrite bool) {
	d.C.Races++
	if len(d.races) < d.MaxRaces {
		d.races = append(d.races, Race{
			Addr: addr, Prev: prev, Cur: cur, PrevWrite: prevWrite, CurWrite: curWrite,
		})
	}
}

// OnAccess processes one memory access by the currently executing task.
// Locations are tracked at 8-byte granularity like the Aikido FastTrack
// port (§4.2).
func (d *Detector) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.clock.Charge(stats.AnalysisFast)
	key := addr &^ 7
	c := d.shadow[key]
	if c == nil {
		c = &cell{}
		d.shadow[key] = c
	}
	cur := access{task: tid, pc: pc}
	if write {
		d.C.Writes++
		if d.parallelWith(c.reader) {
			d.report(key, c.reader, false, cur, true)
		}
		if d.parallelWith(c.writer) {
			d.report(key, c.writer, true, cur, true)
		}
		c.writer = cur
		return
	}
	d.C.Reads++
	if d.parallelWith(c.writer) {
		d.report(key, c.writer, true, cur, false)
	}
	// Keep a parallel reader in the cell (it can race with a later
	// writer); replace only serial ones, per the original algorithm.
	if !d.parallelWith(c.reader) {
		c.reader = cur
	}
}

// Races returns the recorded reports, deterministically ordered.
func (d *Detector) Races() []Race {
	out := make([]Race, len(d.races))
	copy(out, d.races)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Cur.pc < out[j].Cur.pc
	})
	return out
}
