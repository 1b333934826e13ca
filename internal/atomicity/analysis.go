package atomicity

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
)

// Kind is the detector's registry name.
const Kind = "atomicity"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		return New(env.Clock), nil
	})
	analysis.RegisterAlias("atom", Kind)
}

// Name implements analysis.Analysis.
func (d *Detector) Name() string { return Kind }

// OnExit implements analysis.Analysis: a thread's atomic regions end with
// its lock releases, not its exit.
func (d *Detector) OnExit(tid guest.TID) {}

// Report implements analysis.Analysis.
func (d *Detector) Report() analysis.Findings {
	return &Findings{Counters: d.C, Violations: d.Violations()}
}

// Findings is the detector's analysis.Findings: unserializable
// interleavings plus the region counters behind them.
type Findings struct {
	Counters   Counters
	Violations []Violation
}

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Violations) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Violations))
	for i, v := range f.Violations {
		out[i] = v.String()
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("reads=%d writes=%d regions=%d sync=%d vars=%d",
		f.Counters.Reads, f.Counters.Writes, f.Counters.Regions,
		f.Counters.SyncOps, f.Counters.Variables)
}
