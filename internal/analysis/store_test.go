package analysis

import "testing"

// TestStoreChunkIsOnePage pins the Store's line cell: a paged chunk holds
// 64 lines of eight 8-byte blocks, so the 512 blocks of one 4 KiB page
// materialize exactly one chunk, the next page materializes a second, and
// every block keeps a cell of its own.
func TestStoreChunkIsOnePage(t *testing.T) {
	var s Store[uint64]
	const page, blocks = uint64(0x40_0000), 512
	for i := uint64(0); i < blocks; i++ {
		*s.Cell(page + i<<BlockShift) = i + 1
	}
	if n := s.t.Chunks(); n != 1 {
		t.Fatalf("the 512 blocks of one page materialized %d chunks, want 1", n)
	}
	for i := uint64(0); i < blocks; i++ {
		// Any byte of a block reaches the block's cell.
		if got := *s.Cell(page + i<<BlockShift + 7); got != i+1 {
			t.Fatalf("block %d reads %d, want %d", i, got, i+1)
		}
	}
	if *s.Cell(page + blocks<<BlockShift) != 0 {
		t.Fatal("the next page's first cell is not fresh")
	}
	if n := s.t.Chunks(); n != 2 {
		t.Fatalf("touching the next page left %d chunks, want 2", n)
	}
}
