package commgraph_test

import (
	"testing"

	"repro/internal/stats"
)

// TestOnAccessNoAllocs pins the paged last-writer store: writes that
// materialize new variables on pages that already hold cells, and reads
// by the writer, allocate nothing.
func TestOnAccessNoAllocs(t *testing.T) {
	a := New(&stats.Clock{})
	const base, pages = uint64(0x1000), 8
	for p := uint64(0); p < pages; p++ {
		a.OnAccess(1, 0, base+p<<12, 8, true)
	}
	next := base
	sweep := func() {
		for i := 0; i < 512; i++ {
			if next += 8; next&0xfff == 0 {
				next += 8 // skip the block each page was touched at
			}
			a.OnAccess(1, 0, next, 8, true)
			a.OnAccess(1, 0, next, 8, false)
		}
	}
	if n := testing.AllocsPerRun(4, sweep); n != 0 {
		t.Errorf("new variables on touched pages allocate %.1f objects per 512, want 0", n)
	}
	if want := uint64(pages + 5*512); a.C.Variables != want {
		t.Errorf("vars = %d, want %d", a.C.Variables, want)
	}
}

// TestReadDoesNotCountVariable pins that a variable counts on its first
// write only: a read of a never-written variable is not a variable.
func TestReadDoesNotCountVariable(t *testing.T) {
	a := New(&stats.Clock{})
	a.OnAccess(1, 0, 0x1000, 8, false)
	a.OnAccess(2, 0, 0x1000, 8, false)
	if a.C.Variables != 0 || a.C.Communications != 0 {
		t.Fatalf("reads only: vars=%d comms=%d, want 0 and 0", a.C.Variables, a.C.Communications)
	}
	a.OnAccess(1, 0, 0x1000, 8, true)
	a.OnAccess(1, 0, 0x1000, 8, true)
	a.OnAccess(2, 0, 0x1000, 8, false)
	if a.C.Variables != 1 || a.C.Communications != 1 {
		t.Errorf("after writes: vars=%d comms=%d, want 1 and 1", a.C.Variables, a.C.Communications)
	}
}

// BenchmarkPipelineOnAccess measures a write and a read by the same
// thread: the last-writer lookup every analyzed access pays.
func BenchmarkPipelineOnAccess(b *testing.B) {
	a := New(&stats.Clock{})
	a.OnAccess(1, 0, 0x1000, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnAccess(1, 0, 0x1000, 8, i&1 == 0)
	}
}
