package analysis

import "repro/internal/paged"

// BlockShift is log2 of the variable granularity of every core detector:
// 8-byte blocks (§4.2).
const BlockShift = 3

// Store is the per-variable metadata storage the core detectors share: one
// cell of type C per 8-byte block of application memory, kept in a
// paged.Table keyed by block number (shadow storage indexed by block
// address, §4.2). A chunk covers an aligned 4 KiB span of application
// memory, so an access near a recently used span costs no map operation,
// and materializing a cell inside an existing chunk allocates nothing.
//
// A cell starts as C's zero value; detectors that count materialized
// variables recognize an untouched cell by its contents, so a C whose zero
// value is reachable after an access must carry an explicit touched bit.
// The zero value is an empty store, ready for use. The store charges no
// simulated cycles: the detectors' cost models are per access and
// independent of how their metadata is kept.
type Store[C any] struct {
	t paged.Table[C]
}

// Cell returns the cell of the 8-byte block containing addr, materializing
// its chunk on first touch.
func (s *Store[C]) Cell(addr uint64) *C { return s.t.At(addr >> BlockShift) }
