// Package taint is a dynamic taint tracker — the "tracking tainted data"
// member of the shadow-value tool family the paper builds Umbra for (§2.2).
//
// Taint is introduced by loads from configured *source* regions (untrusted
// input buffers), propagated through the register file (the tracker shadows
// every guest register per thread and models each instruction's dataflow)
// and through memory (a byte-granular Umbra shadow map), across thread
// creation (the spawn argument), and reported when a tainted value reaches
// a *sink* region (an output buffer a trusted consumer reads).
//
// The tracker is a registry analysis ("taint") and runs only inside a
// core.System. The register half of the propagation rides the engine's
// retire observer (OnRetire); the memory half is the access stream the
// system delivers (OnAccess), which carries the resolved effective
// address. Like the memory checker, a taint tracker must see every
// access, so its native configuration is full instrumentation — the cost
// class Aikido exists to avoid for analyses that only need shared data.
// Sources and sinks are set between core.NewSystem and Run, on the
// *Tracker that System.Analysis("taint") returns.
package taint

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/umbra"
)

// Region is a half-open guest address range.
type Region struct {
	Base, End uint64
}

// Contains reports whether addr is inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End }

// Flow is one detected tainted write into a sink region.
type Flow struct {
	TID  guest.TID
	PC   isa.PC
	Addr uint64
	Size uint8
}

// String renders the flow.
func (f Flow) String() string {
	return fmt.Sprintf("tainted %d-byte write to sink %#x by thread %d (pc %d)",
		f.Size, f.Addr, f.TID, f.PC)
}

// Counters summarizes tracker work.
type Counters struct {
	TaintedLoads  uint64
	TaintedStores uint64
	Flows         uint64
	RegOps        uint64
}

// Tracker is one taint-tracking instance. Of the synchronization hooks it
// implements only OnFork; locks, joins and barriers carry no data flow.
type Tracker struct {
	analysis.NoSync
	regs    map[guest.TID]*[isa.NumRegs]bool
	mem     *umbra.ShadowMap[bool]
	sources []Region
	sinks   []Region
	// prog lets OnAccess recover an instruction's register operands from
	// its PC.
	prog *isa.Program

	flows []Flow
	// dedup suppresses repeated flows from one (pc, sink-address) pair.
	dedup map[uint64]struct{}

	clock *stats.Clock

	C Counters
}

// maxFlows caps stored reports.
const maxFlows = 64

// New creates a tracker for the process over its Umbra instance.
func New(p *guest.Process, um *umbra.Umbra, clock *stats.Clock) *Tracker {
	return &Tracker{
		regs:  make(map[guest.TID]*[isa.NumRegs]bool),
		mem:   umbra.NewShadowMap[bool](um, 1),
		prog:  p.Prog,
		dedup: make(map[uint64]struct{}),
		clock: clock,
	}
}

// AddSource marks [base, base+len) as a taint source: every load from it
// yields tainted data.
func (t *Tracker) AddSource(base, length uint64) {
	t.sources = append(t.sources, Region{Base: base, End: base + length})
}

// AddSink marks [base, base+len) as a sink: tainted stores into it are
// reported.
func (t *Tracker) AddSink(base, length uint64) {
	t.sinks = append(t.sinks, Region{Base: base, End: base + length})
}

// regFile returns (creating) the register shadow of a thread.
func (t *Tracker) regFile(tid guest.TID) *[isa.NumRegs]bool {
	rf := t.regs[tid]
	if rf == nil {
		rf = new([isa.NumRegs]bool)
		t.regs[tid] = rf
	}
	return rf
}

// inAny reports membership in a region list.
func inAny(rs []Region, addr uint64) bool {
	for _, r := range rs {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// memTainted reports whether any byte of [addr, addr+size) is tainted.
func (t *Tracker) memTainted(tid guest.TID, addr uint64, size uint8) bool {
	if inAny(t.sources, addr) {
		return true
	}
	for i := uint64(0); i < uint64(size); i++ {
		if cell := t.mem.Get(tid, addr+i); cell != nil && *cell {
			return true
		}
	}
	return false
}

// setMem marks or clears [addr, addr+size).
func (t *Tracker) setMem(tid guest.TID, addr uint64, size uint8, v bool) {
	for i := uint64(0); i < uint64(size); i++ {
		if cell := t.mem.Get(tid, addr+i); cell != nil {
			*cell = v
		}
	}
}

// OnRetire is the register half of the propagation, wired as the engine's
// observer. Memory ops are handled by OnAccess; everything else follows
// the instruction's register dataflow.
func (t *Tracker) OnRetire(th *guest.Thread, pc isa.PC, in isa.Instr) {
	if in.Op.IsMemRef() {
		return
	}
	t.C.RegOps++
	rf := t.regFile(th.ID)
	switch in.Op {
	case isa.MovImm:
		rf[in.Rd] = false
	case isa.Mov:
		rf[in.Rd] = rf[in.Rs]
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.And, isa.Or, isa.Xor:
		rf[in.Rd] = rf[in.Rs] || rf[in.Rt]
	case isa.AddImm, isa.Shl, isa.Shr:
		rf[in.Rd] = rf[in.Rs]
	case isa.Syscall:
		// Kernel results (R0) are fresh, untainted values.
		rf[isa.R0] = false
	}
}

// report stores a deduplicated flow.
func (t *Tracker) report(f Flow) {
	t.C.Flows++
	key := uint64(f.PC)<<32 | (f.Addr & 0xffffffff)
	if _, seen := t.dedup[key]; seen {
		return
	}
	t.dedup[key] = struct{}{}
	if len(t.flows) < maxFlows {
		t.flows = append(t.flows, f)
	}
}

// Flows returns the recorded source→sink flows, ordered by PC.
func (t *Tracker) Flows() []Flow {
	out := make([]Flow, len(t.flows))
	copy(out, t.flows)
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}
