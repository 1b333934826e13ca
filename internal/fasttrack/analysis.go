package fasttrack

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
)

// Kind is the detector's registry name.
const Kind = "fasttrack"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		return New(env.Clock), nil
	})
	analysis.RegisterAlias("ft", Kind)
}

// Name implements analysis.Analysis.
func (d *Detector) Name() string { return Kind }

// OnExit implements analysis.Analysis: thread exit carries no
// happens-before edge of its own (the join does).
func (d *Detector) OnExit(tid guest.TID) {}

// Report implements analysis.Analysis.
func (d *Detector) Report() analysis.Findings {
	return &Findings{Counters: d.C, Races: d.Races(), Dropped: d.Dropped}
}

// RacesIn extracts the FastTrack races from a name-keyed findings map
// (core.Result.Findings). It replaces the deprecated Result.Races
// accessor: callers consume Result.Findings and ask the producing package
// for its typed view.
func RacesIn(fs map[string]analysis.Findings) []Race {
	if f := findingsIn(fs); f != nil {
		return f.Races
	}
	return nil
}

// CountersIn extracts the FastTrack work counters from a name-keyed
// findings map (the deprecated Result.FT accessor's replacement).
func CountersIn(fs map[string]analysis.Findings) Counters {
	if f := findingsIn(fs); f != nil {
		return f.Counters
	}
	return Counters{}
}

// findingsIn locates the FastTrack findings in a name-keyed map, where
// they sit under Kind.
func findingsIn(fs map[string]analysis.Findings) *Findings {
	f, _ := fs[Kind].(*Findings)
	return f
}

// Findings is the detector's analysis.Findings: the recorded races plus
// the fast/slow-path counters behind them.
type Findings struct {
	Counters Counters
	Races    []Race
	// Dropped counts races beyond the findings cap.
	Dropped uint64
}

// Analysis implements analysis.Findings.
func (f *Findings) Analysis() string { return Kind }

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
	return fmt.Sprintf("reads=%d writes=%d same-epoch=%d ordered=%d slow=%d sync=%d vars=%d",
		f.Counters.Reads, f.Counters.Writes, f.Counters.SameEpoch,
		f.Counters.OrderedEpoch, f.Counters.SlowPath, f.Counters.SyncOps,
		f.Counters.Variables)
}
