package fasttrack

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/stats"
)

// BenchmarkSameEpochWrite measures the dominant fast path: repeated writes
// by one thread in one epoch.
func BenchmarkSameEpochWrite(b *testing.B) {
	d := New(&stats.Clock{})
	d.OnAccess(1, 1, 0x1000, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(1, 1, 0x1000, 8, true)
	}
}

// BenchmarkOrderedHandoff measures lock-ordered write handoffs between two
// threads (ordered-epoch path + sync updates).
func BenchmarkOrderedHandoff(b *testing.B) {
	d := New(&stats.Clock{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := guest.TID(i&1) + 1
		d.OnAcquire(t, 1)
		d.OnAccess(t, 1, 0x1000, 8, true)
		d.OnRelease(t, 1)
	}
}

// BenchmarkReadShared measures the read-vector-clock slow path: concurrent
// readers updating their slots.
func BenchmarkReadShared(b *testing.B) {
	d := New(&stats.Clock{})
	d.OnFork(1, 2)
	d.OnFork(1, 3)
	d.OnAccess(2, 1, 0x1000, 8, false)
	d.OnAccess(3, 2, 0x1000, 8, false) // promote to read VC
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(guest.TID(2+i&1), 3, 0x1000, 8, false)
	}
}
