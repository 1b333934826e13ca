package analysis

// Store is the per-variable metadata storage the core detectors share.
//
// The paper keeps each hosted analysis's per-variable metadata in shadow
// storage indexed by block address (§4.2). A Go map keyed by block address
// pays a hash and probe on every analyzed access, plus a heap allocation
// per materialized block. Store is a two-level paged table in the style of
// Umbra's shadow translation instead: block addresses are grouped into
// aligned 4 KiB spans, each backed by one chunk of inline cells, and a
// direct-mapped chunk cache serves the common case (an access near a
// recently used span) with no map operation at all. Materializing a cell
// inside an existing chunk allocates nothing.
//
// The store charges no simulated cycles: the detectors' cost models are
// per access and independent of how their metadata is kept.

// BlockShift is log2 of the variable granularity of every core detector:
// 8-byte blocks (§4.2).
const BlockShift = 3

const (
	// chunkBits is log2 of the cells per chunk: 512 cells cover one
	// aligned 4 KiB span of application memory at 8-byte granularity.
	chunkBits  = 9
	chunkCells = 1 << chunkBits
	// cacheSlots sizes the direct-mapped chunk cache. Threads alternate
	// between regions (stack, globals, heap) and keep several chunks live
	// at once, which a single-entry memo would thrash on.
	cacheSlots = 64
)

// Store holds one metadata cell of type C per 8-byte block of application
// memory. A cell starts as C's zero value; detectors that count
// materialized variables recognize an untouched cell by its contents, so a
// C whose zero value is reachable after an access must carry an explicit
// touched bit. Keep C pointer-free where possible: chunks are then noscan
// and the garbage collector never walks shadow metadata. The zero value is
// an empty store, ready for use.
type Store[C any] struct {
	chunks map[uint64]*[chunkCells]C
	cache  [cacheSlots]chunkSlot[C]
}

// chunkSlot is one direct-mapped cache entry: the chunk for the span whose
// key is tag-1. A zero tag marks an empty slot, so the zero Store needs no
// initialization and a lookup is one comparison.
type chunkSlot[C any] struct {
	tag uint64
	c   *[chunkCells]C
}

// Cell returns the cell of the 8-byte block containing addr, materializing
// its chunk on first touch.
func (s *Store[C]) Cell(addr uint64) *C {
	key := addr >> (BlockShift + chunkBits)
	slot := &s.cache[key&(cacheSlots-1)]
	if slot.tag != key+1 {
		s.fill(slot, key)
	}
	return &slot.c[(addr>>BlockShift)&(chunkCells-1)]
}

// fill loads the chunk for span key into slot, allocating it if the span
// was never touched.
func (s *Store[C]) fill(slot *chunkSlot[C], key uint64) {
	c, ok := s.chunks[key]
	if !ok {
		if s.chunks == nil {
			s.chunks = make(map[uint64]*[chunkCells]C)
		}
		c = new([chunkCells]C)
		s.chunks[key] = c
	}
	slot.tag, slot.c = key+1, c
}
