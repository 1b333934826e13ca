package core

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/fasttrack"
)

// This file is the name-keyed findings surface of a Result. The
// pre-registry per-detector accessors (Races, Warnings, FT, LS, …) that
// briefly lived here as a one-release compatibility shim are gone:
// consumers read Result.Findings (or AnalysisFindings) and recover typed
// detail through the producing package — fasttrack.RacesIn,
// lockset.WarningsIn, or a direct type assertion on the findings value.

// AnalysisNames returns the names of the analyses that ran, sorted — the
// deterministic iteration order for the Findings map.
func (r *Result) AnalysisNames() []string {
	if len(r.Findings) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.Findings))
	for n := range r.Findings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AnalysisFindings returns the findings of the analysis registered under
// name (aliases resolve), or nil if it did not run.
func (r *Result) AnalysisFindings(name string) analysis.Findings {
	return r.Findings[analysis.Resolve(name)]
}

// TotalFindings sums stored findings across every analysis that ran.
func (r *Result) TotalFindings() int {
	n := 0
	for _, f := range r.Findings {
		n += f.Len()
	}
	return n
}

// FastTrack returns the live FastTrack detector instance, if one is
// configured — the surface the var-store equivalence tests use to swap
// implementations before a run.
func (s *System) FastTrack() *fasttrack.Detector {
	for _, a := range s.Analyses {
		if d, ok := a.(*fasttrack.Detector); ok {
			return d
		}
	}
	return nil
}
