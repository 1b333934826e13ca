package commgraph

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
)

// Kind is the profiler's registry name.
const Kind = "commgraph"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		return New(env.Clock), nil
	})
	analysis.RegisterAlias("cg", Kind)
}

// Name implements analysis.Analysis.
func (a *Analysis) Name() string { return Kind }

// OnExit implements analysis.Analysis.
func (a *Analysis) OnExit(tid guest.TID) {}

// Report implements analysis.Analysis: every edge, heaviest first.
func (a *Analysis) Report() analysis.Findings {
	return &Findings{Counters: a.C, Edges: a.Edges()}
}

// Findings is the profiler's analysis.Findings: the communication graph's
// weighted edges, heaviest first.
type Findings struct {
	Counters Counters
	Edges    []WeightedEdge
}

// Analysis implements analysis.Findings.
func (f *Findings) Analysis() string { return Kind }

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Edges) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		out[i] = fmt.Sprintf("edge %v weight %d", e.Edge, e.Weight)
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("reads=%d writes=%d communications=%d vars=%d",
		f.Counters.Reads, f.Counters.Writes, f.Counters.Communications,
		f.Counters.Variables)
}
