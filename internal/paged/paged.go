// Package paged is the one sparse table on the simulator's memory path: a
// map from a 64-bit key (a page, frame or block number) to an inline cell.
//
// Every user keys a space that is sparse overall but dense where it is
// populated — the guest page table and AikidoVM's shadow and protection
// tables key by page or frame number (§3.2.4), the hosted analyses' shadow
// metadata by 64-byte line of 8-byte blocks (§4.2). A Table therefore
// stores aligned chunks of 64 inline cells keyed by the key's high bits,
// behind a direct-mapped chunk cache: a lookup near a recently used chunk
// is one multiply, one tag comparison and an index, with no map
// operation, and materializing a cell inside an existing chunk allocates
// nothing.
//
// Chunks are small because a table costs the chunks it touches: AikidoVM
// gives every thread its own shadow and override tables, filled lazily,
// so a thread that touches a few pages zeroes a few 64-cell chunks. A user
// whose keys are denser than pages widens its cell instead of the chunk:
// analysis.Store's cell is a line of eight blocks, so one chunk covers a
// page.
//
// A Table does not know which cells are in use. Each user recognizes an
// untouched cell by its contents (a zero frame, a clear set bit), so a cell
// type whose zero value is reachable after a write must carry an explicit
// flag. Keep cells pointer-free: chunks are then noscan, and the garbage
// collector never walks them.
package paged

const (
	// chunkBits is log2 of the cells per chunk: 64 cells, one aligned
	// 256 KiB span of pages.
	chunkBits = 6
	// chunkLen is the number of cells per chunk.
	chunkLen = 1 << chunkBits
	// cacheBits is log2 of cacheSlots.
	cacheBits = 6
	// cacheSlots sizes the direct-mapped chunk cache. Users alternate
	// between regions (stack, globals, heap, mirrors) and keep several
	// chunks live at once, which a single-entry memo would thrash on.
	cacheSlots = 1 << cacheBits
)

// slotOf returns chunk n's chunk-cache slot: the top cacheBits bits of a
// Fibonacci hash of the whole chunk number. Most address-space regions
// start on 256 MiB boundaries, so their first chunks agree in all their
// low bits: a slot taken from those bits would put the data, heap, mmap
// and mirror bases and thread 1's stack in one slot, evicting each other.
// The hash folds in every bit of n and still spreads consecutive chunks.
func slotOf(n uint64) uint64 { return (n * 0x9E3779B97F4A7C15) >> (64 - cacheBits) }

// Table holds one cell of type C per key. The zero value is an empty
// table, ready for use.
type Table[C any] struct {
	chunks map[uint64]*[chunkLen]C
	cache  [cacheSlots]slot[C]
}

// slot is one chunk-cache entry: the chunk whose number is tag-1. A zero
// tag marks an empty slot, so the zero Table needs no initialization and a
// lookup is one comparison.
type slot[C any] struct {
	tag uint64
	c   *[chunkLen]C
}

// Get returns the cell for key, or nil when its chunk was never
// materialized. It never allocates. The miss path probes the chunk map
// inline rather than calling out, which keeps Get cheap enough to inline
// into the translation fast path.
func (t *Table[C]) Get(key uint64) *C {
	n := key >> chunkBits
	s := &t.cache[slotOf(n)]
	if s.tag != n+1 {
		c := t.chunks[n]
		if c == nil {
			return nil
		}
		s.tag, s.c = n+1, c
	}
	return &s.c[key&(chunkLen-1)]
}

// At returns the cell for key, materializing its chunk on first touch.
func (t *Table[C]) At(key uint64) *C {
	n := key >> chunkBits
	s := &t.cache[slotOf(n)]
	if s.tag != n+1 {
		t.fill(s, n)
	}
	return &s.c[key&(chunkLen-1)]
}

// Chunks reports how many chunks the table has materialized; its cell
// storage is Chunks × 64 cells.
func (t *Table[C]) Chunks() int { return len(t.chunks) }

// fill loads chunk n into s, allocating it if it was never touched.
func (t *Table[C]) fill(s *slot[C], n uint64) {
	c := t.chunks[n]
	if c == nil {
		if t.chunks == nil {
			t.chunks = make(map[uint64]*[chunkLen]C)
		}
		c = new([chunkLen]C)
		t.chunks[n] = c
	}
	s.tag, s.c = n+1, c
}
