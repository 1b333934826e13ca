package analysis

import (
	"math/rand"
	"testing"
)

// TestStoreMatchesMap drives the paged store and a map keyed by block
// address with the same random access stream — addresses spread over
// more spans than the chunk cache has slots, so slots are evicted and
// refilled — and demands the same cell contents throughout.
func TestStoreMatchesMap(t *testing.T) {
	var s Store[uint64]
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// 256 spans, some 64 slots apart so they collide in the cache.
		addr := uint64(rng.Intn(256))<<(BlockShift+chunkBits) | uint64(rng.Intn(1<<(BlockShift+chunkBits)))
		c := s.Cell(addr)
		block := addr &^ (1<<BlockShift - 1)
		if *c != ref[block] {
			t.Fatalf("step %d: cell %#x = %d, want %d", i, addr, *c, ref[block])
		}
		*c++
		ref[block]++
	}
}

// TestStoreCellIdentity pins the addressing: every byte of a block maps to
// one cell, neighbouring blocks to distinct cells, and a cell keeps its
// address across cache evictions.
func TestStoreCellIdentity(t *testing.T) {
	var s Store[int32]
	const a = uint64(0x7000)
	c := s.Cell(a)
	for off := uint64(1); off < 8; off++ {
		if s.Cell(a+off) != c {
			t.Fatalf("byte %d of the block maps to another cell", off)
		}
	}
	if s.Cell(a+8) == c || s.Cell(a-8) == c {
		t.Fatal("neighbouring blocks share a cell")
	}
	// Evict a's cache slot with a colliding span, then come back.
	s.Cell(a + cacheSlots<<(BlockShift+chunkBits))
	if s.Cell(a) != c {
		t.Fatal("cell moved after its cache slot was evicted")
	}
}

// TestStoreCellNoAllocs pins the allocation-free contract: a cell on a
// span that already has a chunk costs no allocation, through the cache or
// after a conflict eviction.
func TestStoreCellNoAllocs(t *testing.T) {
	var s Store[[3]uint64]
	const a, b = uint64(0x10000), uint64(0x10000 + cacheSlots<<(BlockShift+chunkBits))
	s.Cell(a)
	s.Cell(b)
	next := a
	if n := testing.AllocsPerRun(100, func() {
		next += 8
		s.Cell(next)[0]++
		s.Cell(b)[1]++ // same cache slot: evicts and refills
	}); n != 0 {
		t.Errorf("Cell allocates %.1f objects, want 0", n)
	}
}
