package fasttrack

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/stats"
)

// TestOnAccessFastPathNoAllocs pins the allocation-free guarantee of the
// paged shadow table: once a block's chunk is materialized, the same-epoch
// read and write paths allocate nothing.
func TestOnAccessFastPathNoAllocs(t *testing.T) {
	d := New(&stats.Clock{})
	// Materialize thread clock and variable chunk.
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(1, 11, x, 8, false)

	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 10, x, 8, true) // WRITE SAME EPOCH
	}); n != 0 {
		t.Errorf("same-epoch write allocates %.1f objects per access, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 11, x, 8, false) // READ SAME EPOCH
	}); n != 0 {
		t.Errorf("same-epoch read allocates %.1f objects per access, want 0", n)
	}
	// Alternating blocks in distinct chunks must also stay allocation-free
	// (the direct-mapped chunk cache absorbs the alternation).
	d.OnAccess(1, 12, x+1<<14, 8, true)
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 10, x, 8, true)
		d.OnAccess(1, 12, x+1<<14, 8, true)
	}); n != 0 {
		t.Errorf("chunk-alternating writes allocate %.1f objects, want 0", n)
	}
}

// BenchmarkPipelineOnAccess measures the detector's same-epoch fast path —
// the per-access cost every retired memory reference pays in FastTrack-full
// mode.
func BenchmarkPipelineOnAccess(b *testing.B) {
	d := New(&stats.Clock{})
	d.OnAccess(1, 10, x, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(1, 10, x, 8, true)
	}
}

// TestLockHandoffNoAllocs pins the allocation-free release: once a lock's
// clock exists, a release copies C_t into it instead of allocating a new
// clock, so a steady-state acquire→release cycle (here handed back and
// forth between two threads) allocates nothing.
func TestLockHandoffNoAllocs(t *testing.T) {
	d := New(&stats.Clock{})
	cycle := func() {
		d.OnAcquire(1, 7)
		d.OnRelease(1, 7)
		d.OnAcquire(2, 7)
		d.OnRelease(2, 7)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("acquire→release cycle allocates %.1f objects, want 0", n)
	}
}

// BenchmarkPipelineSync measures one lock acquire+release pair — the work
// every guest critical section costs the detector.
func BenchmarkPipelineSync(b *testing.B) {
	d := New(&stats.Clock{})
	var t guest.TID = 1
	d.OnAcquire(t, 7)
	d.OnRelease(t, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAcquire(t, 7)
		d.OnRelease(t, 7)
	}
}
