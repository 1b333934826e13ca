// Variable-metadata storage for the FastTrack detector.
//
// The detector keeps its varState cells in the shared paged table
// (analysis.Store), like every core detector. The original
// map-of-pointers store is retained here as the reference implementation:
// the equivalence tests run whole PARSEC models against both stores and
// demand identical races, counters, and simulated cycles.
package fasttrack

import "repro/internal/vclock"

// fresh reports whether a cell has never been written by the detector. The
// update rules guarantee every access leaves w≠⊥ₑ, r≠⊥ₑ, or a read VC in
// place (an epoch always carries a clock ≥ 1), so the zero value uniquely
// identifies an untouched block.
func (vs *varState) fresh() bool {
	return vs.w == vclock.None && vs.r == vclock.None && vs.rvcIdx == 0
}

// mapVarStore is the original map-of-pointers store, kept as the reference
// implementation for the equivalence tests.
type mapVarStore struct {
	vars map[uint64]*varState
}

func newMapVarStore() *mapVarStore {
	return &mapVarStore{vars: make(map[uint64]*varState)}
}

// cell returns block's varState, materializing a zero one on first touch,
// and reports whether it was just inserted. Freshness comes from map
// membership, not from varState.fresh, so the equivalence tests check the
// invariant the paged store's freshness test relies on.
func (s *mapVarStore) cell(block uint64) (*varState, bool) {
	vs, ok := s.vars[block]
	if !ok {
		vs = &varState{}
		s.vars[block] = vs
	}
	return vs, !ok
}
