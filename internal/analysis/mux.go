package analysis

import (
	"strings"

	"repro/internal/guest"
	"repro/internal/isa"
)

// Mux fans one instrumented execution out to N analyses — the multiplexed
// single-pass dispatch that lets one DBI+sharing run host FastTrack,
// LockSet, the atomicity checker and the communication-graph profiler
// simultaneously, instead of paying one full execution per analysis. The
// mux itself charges nothing to the simulated clock and allocates nothing
// per event: every hook is a loop over a fixed slice of interfaces, so
// the per-access cycle accounting and the zero-allocation contract of a
// multiplexed run are exactly the sum of its members'.
type Mux struct {
	list []Analysis
	name string
}

// NewMux builds a mux over the given analyses, dispatching in argument
// order (deterministic: member order is configuration, not scheduling).
func NewMux(as ...Analysis) *Mux {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name()
	}
	return &Mux{list: as, name: "mux(" + strings.Join(names, "+") + ")"}
}

// Analyses returns the mux's members in dispatch order.
func (m *Mux) Analyses() []Analysis { return m.list }

// Name implements Analysis.
func (m *Mux) Name() string { return m.name }

// OnAccess implements Analysis.
func (m *Mux) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	for _, a := range m.list {
		a.OnAccess(tid, pc, addr, size, write)
	}
}

// OnSharedAccess implements Analysis (and, structurally, sharing.Analysis —
// the hook AikidoSD drives).
func (m *Mux) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	for _, a := range m.list {
		a.OnSharedAccess(tid, pc, addr, size, write)
	}
}

// OnAcquire implements Analysis.
func (m *Mux) OnAcquire(tid guest.TID, lock int64) {
	for _, a := range m.list {
		a.OnAcquire(tid, lock)
	}
}

// OnRelease implements Analysis.
func (m *Mux) OnRelease(tid guest.TID, lock int64) {
	for _, a := range m.list {
		a.OnRelease(tid, lock)
	}
}

// OnFork implements Analysis.
func (m *Mux) OnFork(parent, child guest.TID) {
	for _, a := range m.list {
		a.OnFork(parent, child)
	}
}

// OnJoin implements Analysis.
func (m *Mux) OnJoin(joiner, child guest.TID) {
	for _, a := range m.list {
		a.OnJoin(joiner, child)
	}
}

// OnExit implements Analysis.
func (m *Mux) OnExit(tid guest.TID) {
	for _, a := range m.list {
		a.OnExit(tid)
	}
}

// OnBarrierWait implements Analysis.
func (m *Mux) OnBarrierWait(tid guest.TID, id int64) {
	for _, a := range m.list {
		a.OnBarrierWait(tid, id)
	}
}

// OnBarrierRelease implements Analysis.
func (m *Mux) OnBarrierRelease(tid guest.TID, id int64) {
	for _, a := range m.list {
		a.OnBarrierRelease(tid, id)
	}
}

// AddThread implements Analysis.
func (m *Mux) AddThread(delta int) {
	for _, a := range m.list {
		a.AddThread(delta)
	}
}

// Report implements Analysis: the mux's findings concatenate its members'
// in dispatch order. Callers that want per-analysis findings (core does)
// iterate Analyses and call each member's Report instead.
func (m *Mux) Report() Findings {
	fs := make([]Findings, len(m.list))
	for i, a := range m.list {
		fs[i] = a.Report()
	}
	return &MuxFindings{Name: m.name, Members: fs}
}

// MuxFindings is the concatenation of the member analyses' findings.
type MuxFindings struct {
	Name    string
	Members []Findings
}

// Analysis implements Findings.
func (f *MuxFindings) Analysis() string { return f.Name }

// Len implements Findings.
func (f *MuxFindings) Len() int {
	n := 0
	for _, m := range f.Members {
		n += m.Len()
	}
	return n
}

// Strings implements Findings: member findings in dispatch order, each
// prefixed by its producer.
func (f *MuxFindings) Strings() []string {
	var out []string
	for _, m := range f.Members {
		for _, s := range m.Strings() {
			out = append(out, m.Analysis()+": "+s)
		}
	}
	return out
}

// Summary implements Findings.
func (f *MuxFindings) Summary() string {
	parts := make([]string, len(f.Members))
	for i, m := range f.Members {
		parts[i] = m.Analysis() + "{" + m.Summary() + "}"
	}
	return strings.Join(parts, " ")
}
