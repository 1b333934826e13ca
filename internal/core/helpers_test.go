package core

import (
	"repro/internal/atomicity"
	"repro/internal/fasttrack"
	"repro/internal/lockset"
)

// Test-local typed accessors over Result.Findings — the migration target
// of the removed deprecated per-detector Result accessors. Each looks up
// the producing package's findings under its registry name and recovers
// the typed view.

func racesOf(r *Result) []fasttrack.Race { return fasttrack.RacesIn(r.Findings) }

func ftOf(r *Result) fasttrack.Counters { return fasttrack.CountersIn(r.Findings) }

func warningsOf(r *Result) []lockset.Warning { return lockset.WarningsIn(r.Findings) }

func lsOf(r *Result) lockset.Counters { return lockset.CountersIn(r.Findings) }

func violationsOf(r *Result) []atomicity.Violation {
	if at, ok := r.Findings[atomicity.Kind].(*atomicity.Findings); ok {
		return at.Violations
	}
	return nil
}

func atomOf(r *Result) atomicity.Counters {
	if at, ok := r.Findings[atomicity.Kind].(*atomicity.Findings); ok {
		return at.Counters
	}
	return atomicity.Counters{}
}
