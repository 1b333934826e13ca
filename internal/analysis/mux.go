package analysis

import (
	"repro/internal/guest"
	"repro/internal/isa"
)

// Mux fans one instrumented execution out to N analyses — the multiplexed
// single-pass dispatch that lets one DBI+sharing run host FastTrack,
// LockSet, the atomicity checker and the communication-graph profiler
// simultaneously, instead of paying one full execution per analysis. The
// mux dispatches events and nothing else: it has no name and no findings
// of its own (core reports each member's). It charges nothing to the
// simulated clock and allocates nothing per event: every hook is a loop
// over a fixed slice of interfaces, so the per-access cycle accounting and
// the zero-allocation contract of a multiplexed run are exactly the sum of
// its members'.
type Mux struct {
	list []Analysis
}

// NewMux builds a mux over the given analyses, dispatching in argument
// order (deterministic: member order is configuration, not scheduling).
func NewMux(as ...Analysis) *Mux { return &Mux{list: as} }

// OnAccess dispatches one full-instrumentation access.
func (m *Mux) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	for _, a := range m.list {
		a.OnAccess(tid, pc, addr, size, write)
	}
}

// OnSharedAccess dispatches one shared-page access (it implements
// sharing.Analysis, the hook AikidoSD drives).
func (m *Mux) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	for _, a := range m.list {
		a.OnSharedAccess(tid, pc, addr, size, write)
	}
}

// OnAcquire dispatches to every member.
func (m *Mux) OnAcquire(tid guest.TID, lock int64) {
	for _, a := range m.list {
		a.OnAcquire(tid, lock)
	}
}

// OnRelease dispatches to every member.
func (m *Mux) OnRelease(tid guest.TID, lock int64) {
	for _, a := range m.list {
		a.OnRelease(tid, lock)
	}
}

// OnFork dispatches to every member.
func (m *Mux) OnFork(parent, child guest.TID) {
	for _, a := range m.list {
		a.OnFork(parent, child)
	}
}

// OnJoin dispatches to every member.
func (m *Mux) OnJoin(joiner, child guest.TID) {
	for _, a := range m.list {
		a.OnJoin(joiner, child)
	}
}

// OnExit dispatches to every member.
func (m *Mux) OnExit(tid guest.TID) {
	for _, a := range m.list {
		a.OnExit(tid)
	}
}

// OnBarrierWait dispatches to every member.
func (m *Mux) OnBarrierWait(tid guest.TID, id int64) {
	for _, a := range m.list {
		a.OnBarrierWait(tid, id)
	}
}

// OnBarrierRelease dispatches to every member.
func (m *Mux) OnBarrierRelease(tid guest.TID, id int64) {
	for _, a := range m.list {
		a.OnBarrierRelease(tid, id)
	}
}

// AddThread dispatches to every member.
func (m *Mux) AddThread(delta int) {
	for _, a := range m.list {
		a.AddThread(delta)
	}
}
