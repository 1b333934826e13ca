package memcheck

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
)

// Kind is the checker's registry name.
const Kind = "memcheck"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		if env.Process == nil || env.Umbra == nil {
			return nil, errors.New("memcheck: requires a process with shadow memory (set Env.Process and Env.Umbra)")
		}
		return Attach(env.Process, env.Umbra, env.Clock), nil
	})
}

// Name implements analysis.Analysis.
func (c *Checker) Name() string { return Kind }

// OnAccess implements analysis.Analysis: every offered access is checked.
// Registry-hosted under full instrumentation this is Dr. Memory's native
// configuration; under Aikido it checks shared pages only — a deliberate
// degradation that demonstrates the framework boundary §1 draws around
// analyses that fundamentally need every access.
func (c *Checker) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.check(tid, pc, addr, size, write)
}

// OnSharedAccess implements analysis.Analysis.
func (c *Checker) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.check(tid, pc, addr, size, write)
}

// Report implements analysis.Analysis.
func (c *Checker) Report() analysis.Findings {
	return &Findings{Counters: c.C, Reports: c.Reports()}
}

// Findings is the checker's analysis.Findings: memory-usage errors plus
// the byte-state counters behind them.
type Findings struct {
	Counters Counters
	Reports  []Report
}

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Reports) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Reports))
	for i, r := range f.Reports {
		out[i] = r.String()
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("loads=%d stores=%d invalid=%d uninit=%d regions=%d",
		f.Counters.Loads, f.Counters.Stores, f.Counters.Invalid,
		f.Counters.Uninit, f.Counters.RegionsTracked)
}
