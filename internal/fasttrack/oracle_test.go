package fasttrack

// Differential testing of FastTrack against a naive full-vector-clock
// oracle (the DJIT+ style detector FastTrack compresses): on any event
// trace, the two must agree on which accesses race. This is FastTrack's
// central correctness claim ("epochs lose no precision"), checked here with
// randomized traces via testing/quick.

import (
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// oracle is the uncompressed detector: every variable carries full read and
// write vector clocks; an access races iff the prior clocks are not ⊑ the
// accessor's clock.
type oracle struct {
	threads map[vclock.TID]vclock.VC
	locks   map[int64]vclock.VC
	reads   map[uint64]vclock.VC
	writes  map[uint64]vclock.VC
	racy    map[uint64]bool // variables on which any race was observed
}

func newOracle() *oracle {
	return &oracle{
		threads: map[vclock.TID]vclock.VC{},
		locks:   map[int64]vclock.VC{},
		reads:   map[uint64]vclock.VC{},
		writes:  map[uint64]vclock.VC{},
		racy:    map[uint64]bool{},
	}
}

func (o *oracle) vc(t vclock.TID) vclock.VC {
	v, ok := o.threads[t]
	if !ok {
		v = vclock.VC{}.Set(t, 1)
		o.threads[t] = v
	}
	return v
}

func (o *oracle) access(t vclock.TID, v uint64, write bool) {
	ct := o.vc(t)
	if !o.writes[v].Leq(ct) {
		o.racy[v] = true
	}
	if write {
		if !o.reads[v].Leq(ct) {
			o.racy[v] = true
		}
		o.writes[v] = o.writes[v].Set(t, ct.Get(t))
	} else {
		o.reads[v] = o.reads[v].Set(t, ct.Get(t))
	}
}

func (o *oracle) acquire(t vclock.TID, l int64) {
	if lv, ok := o.locks[l]; ok {
		o.threads[t] = o.vc(t).Join(lv)
	} else {
		o.vc(t)
	}
}

func (o *oracle) release(t vclock.TID, l int64) {
	ct := o.vc(t)
	o.locks[l] = ct.Copy()
	o.threads[t] = ct.Tick(t)
}

func (o *oracle) fork(p, c vclock.TID) {
	o.threads[c] = o.vc(c).Join(o.vc(p))
	o.threads[p] = o.vc(p).Tick(p)
}

func (o *oracle) join(j, c vclock.TID) {
	o.threads[j] = o.vc(j).Join(o.vc(c))
}

// traceOp is one randomized event.
type traceOp struct {
	Kind  uint8 // 0..1 access, 2 acquire, 3 release, 4 fork, 5 join
	Tid   uint8
	Tid2  uint8
	Var   uint8
	Lock  uint8
	Write bool
}

// runBoth feeds a trace to FastTrack and the oracle and returns the sets of
// racy variables each saw.
//
// Traces are constrained to be *realizable*: a joined thread is dead and
// performs no further events. FastTrack's same-epoch fast path relies on
// this real-world invariant — every happens-before edge OUT of a running
// thread ticks its clock (release, fork, barrier), while join edges come
// from threads that can have no later events. An unconstrained generator
// produces impossible traces (a thread acting after it was joined) on
// which epoch compression is legitimately weaker than full vector clocks.
func runBoth(ops []traceOp) (ftRacy, orRacy map[uint64]bool) {
	d := New(&stats.Clock{})
	o := newOracle()
	held := map[vclock.TID]map[int64]bool{} // keep lock discipline sane
	dead := map[vclock.TID]bool{}

	for _, op := range ops {
		t := vclock.TID(op.Tid%4 + 1)
		gt := guest.TID(t)
		if dead[t] {
			continue // joined threads perform no further events
		}
		switch op.Kind % 6 {
		case 0, 1:
			v := uint64(op.Var%8) << BlockShift
			d.OnAccess(gt, isa.PC(op.Var), v, 8, op.Write)
			o.access(t, v, op.Write)
		case 2:
			l := int64(op.Lock%3 + 1)
			if held[t] == nil {
				held[t] = map[int64]bool{}
			}
			if !held[t][l] {
				held[t][l] = true
				d.OnAcquire(gt, l)
				o.acquire(t, l)
			}
		case 3:
			l := int64(op.Lock%3 + 1)
			if held[t] != nil && held[t][l] {
				held[t][l] = false
				d.OnRelease(gt, l)
				o.release(t, l)
			}
		case 4:
			c := vclock.TID(op.Tid2%4 + 1)
			if c != t && !dead[c] {
				d.OnFork(gt, guest.TID(c))
				o.fork(t, c)
			}
		case 5:
			c := vclock.TID(op.Tid2%4 + 1)
			if c != t {
				d.OnJoin(gt, guest.TID(c))
				o.join(t, c)
				dead[c] = true
			}
		}
	}
	ftRacy = map[uint64]bool{}
	for _, r := range d.Races() {
		ftRacy[r.Addr] = true
	}
	if d.Dropped > 0 {
		// Count dropped races as present (cap reached): collect from seen.
		for k := range d.seen {
			ftRacy[k.addr] = true
		}
	}
	return ftRacy, o.racy
}

// TestFastTrackMatchesVectorClockOracle is the differential property test:
// FastTrack and the naive VC detector flag exactly the same variables.
func TestFastTrackMatchesVectorClockOracle(t *testing.T) {
	prop := func(ops []traceOp) bool {
		ft, or := runBoth(ops)
		if len(ft) != len(or) {
			return false
		}
		for v := range or {
			if !ft[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(prop, cfg); err != nil {
		ce := err.(*quick.CheckError)
		ops := ce.In[0].([]traceOp)
		ft, or := runBoth(ops)
		t.Fatalf("FastTrack and oracle disagree.\ntrace: %+v\nfasttrack: %v\noracle: %v", ops, ft, or)
	}
}

// TestOracleSelfCheck pins the oracle's own behaviour on the canonical
// scenarios, so a bug there cannot silently weaken the differential test.
func TestOracleSelfCheck(t *testing.T) {
	o := newOracle()
	o.access(1, 0, true)
	o.access(2, 0, true)
	if !o.racy[0] {
		t.Error("oracle missed a plain write-write race")
	}
	o2 := newOracle()
	o2.access(1, 0, true)
	o2.acquire(1, 1) // no release in between: lock edge must NOT order
	o2.access(2, 0, true)
	if !o2.racy[0] {
		t.Error("oracle ordered accesses through an unreleased lock")
	}
	o3 := newOracle()
	o3.acquire(1, 1)
	o3.access(1, 0, true)
	o3.release(1, 1)
	o3.acquire(2, 1)
	o3.access(2, 0, true)
	o3.release(2, 1)
	if o3.racy[0] {
		t.Error("oracle flagged lock-ordered writes")
	}
}
