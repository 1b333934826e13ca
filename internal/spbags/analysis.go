package spbags

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
)

// Kind is the detector's registry name.
const Kind = "spbags"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		if env.Process == nil {
			return nil, errors.New("spbags: requires a process to schedule (set Env.Process)")
		}
		// SP-bags is defined on the serial depth-first execution of a
		// fork-join program, the Nondeterminator's execution model: each
		// spawned child runs to completion before its creator resumes.
		// Every other analysis in the same run observes that schedule
		// too.
		env.Process.Policy = guest.SchedSerialDFS
		return New(env.Clock), nil
	})
}

// Name implements analysis.Analysis.
func (d *Detector) Name() string { return Kind }

// OnSharedAccess implements analysis.Analysis (the AikidoSD client
// surface). Determinacy races are conflicts on shared data by definition,
// so Aikido's filtering is a natural fit — modulo the first-access window
// shared with every hosted detector.
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}

// Report implements analysis.Analysis. The run followed the serial
// depth-first schedule the factory set, so under full instrumentation the
// verdict is the Nondeterminator's schedule-independent one for a strict
// fork-join program; under Aikido it omits the races of the §6
// first-access window, like every hosted detector.
func (d *Detector) Report() analysis.Findings {
	return &Findings{Counters: d.C, Races: d.Races()}
}

// Findings is the detector's analysis.Findings: determinacy races plus
// the bag counters behind them.
type Findings struct {
	Counters Counters
	Races    []Race
}

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Races) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Races))
	for i, r := range f.Races {
		out[i] = r.String()
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("reads=%d writes=%d tasks=%d joins=%d races=%d",
		f.Counters.Reads, f.Counters.Writes, f.Counters.Tasks,
		f.Counters.Joins, f.Counters.Races)
}
