package lockset

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
)

// Kind is the detector's registry name.
const Kind = "lockset"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		return New(env.Clock), nil
	})
	analysis.RegisterAlias("ls", Kind)
}

// Name implements analysis.Analysis.
func (d *Detector) Name() string { return Kind }

// OnExit implements analysis.Analysis: Eraser has no thread-lifetime
// notion beyond held locks, which die with the thread's events.
func (d *Detector) OnExit(tid guest.TID) {}

// Report implements analysis.Analysis.
func (d *Detector) Report() analysis.Findings {
	return &Findings{Counters: d.C, Warnings: d.Warnings()}
}

// WarningsIn extracts the LockSet warnings from a name-keyed findings map
// (core.Result.Findings). It replaces the deprecated Result.Warnings
// accessor.
func WarningsIn(fs map[string]analysis.Findings) []Warning {
	if f := findingsIn(fs); f != nil {
		return f.Warnings
	}
	return nil
}

// CountersIn extracts the LockSet work counters from a name-keyed
// findings map (the deprecated Result.LS accessor's replacement).
func CountersIn(fs map[string]analysis.Findings) Counters {
	if f := findingsIn(fs); f != nil {
		return f.Counters
	}
	return Counters{}
}

// findingsIn locates the LockSet findings in a name-keyed map, where they
// sit under Kind.
func findingsIn(fs map[string]analysis.Findings) *Findings {
	f, _ := fs[Kind].(*Findings)
	return f
}

// Findings is the detector's analysis.Findings: locking-discipline
// violations plus the refinement counters behind them.
type Findings struct {
	Counters Counters
	Warnings []Warning
}

// Analysis implements analysis.Findings.
func (f *Findings) Analysis() string { return Kind }

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Warnings) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Warnings))
	for i, w := range f.Warnings {
		out[i] = w.String()
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("reads=%d writes=%d refinements=%d sync=%d vars=%d",
		f.Counters.Reads, f.Counters.Writes, f.Counters.Refinements,
		f.Counters.SyncOps, f.Counters.Variables)
}
