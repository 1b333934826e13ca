package analysis

import "repro/internal/paged"

// BlockShift is log2 of the variable granularity of every core detector:
// 8-byte blocks (§4.2).
const BlockShift = 3

// lineShift is log2 of the blocks in one Store line: eight 8-byte blocks,
// a 64-byte line of application memory.
const lineShift = 3

// Store is the per-variable metadata storage the core detectors share: one
// cell of type C per 8-byte block of application memory (shadow storage
// indexed by block address, §4.2). It keeps a paged.Table whose cell is a
// 64-byte line of eight blocks, keyed by line number, so a 64-cell chunk
// covers one aligned 4 KiB page of application memory: an access near a
// recently used page costs no map operation, and materializing a cell
// inside an existing chunk allocates nothing.
//
// A cell starts as C's zero value; detectors that count materialized
// variables recognize an untouched cell by its contents, so a C whose zero
// value is reachable after an access must carry an explicit touched bit.
// The zero value is an empty store, ready for use. The store charges no
// simulated cycles: the detectors' cost models are per access and
// independent of how their metadata is kept.
type Store[C any] struct {
	t paged.Table[[1 << lineShift]C]
}

// Cell returns the cell of the 8-byte block containing addr, materializing
// its chunk on first touch.
func (s *Store[C]) Cell(addr uint64) *C {
	b := addr >> BlockShift
	return &s.t.At(b >> lineShift)[b&(1<<lineShift-1)]
}
