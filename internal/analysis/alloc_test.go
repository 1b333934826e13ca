package analysis

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
)

// nopAnalysis isolates the mux's own dispatch cost: every hook is a no-op,
// so any allocation measured below is the mux's.
type nopAnalysis struct {
	NoSync
	name string
	n    int
}

func (a *nopAnalysis) Name() string { return a.name }
func (a *nopAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.n++
}
func (a *nopAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.n++
}
func (a *nopAnalysis) Report() Findings { return &stubFindings{name: a.name} }

// TestMuxDispatchNoAllocs extends the pipeline's zero-allocation
// regression contract (PR 1) through the multiplexed dispatch layer: the
// mux must add no per-event allocation to the DBI→sharing→analysis hot
// path, for any member count.
func TestMuxDispatchNoAllocs(t *testing.T) {
	m := NewMux(&nopAnalysis{name: "a"}, &nopAnalysis{name: "b"}, &nopAnalysis{name: "c"})
	if n := testing.AllocsPerRun(200, func() {
		m.OnSharedAccess(1, 10, 0x1000, 8, true)
	}); n != 0 {
		t.Errorf("mux OnSharedAccess allocates %.1f objects per event, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.OnAccess(1, 10, 0x1000, 8, false)
	}); n != 0 {
		t.Errorf("mux OnAccess allocates %.1f objects per event, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.OnAcquire(1, 7)
		m.OnRelease(1, 7)
		m.OnBarrierWait(1, 3)
		m.OnBarrierRelease(1, 3)
	}); n != 0 {
		t.Errorf("mux sync dispatch allocates %.1f objects per event, want 0", n)
	}
}

// BenchmarkMuxDispatch measures the pure fan-out overhead per member —
// the price a multiplexed run pays over a single-analysis run, excluding
// the analyses' own work.
func BenchmarkMuxDispatch(b *testing.B) {
	for _, members := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "members=1", 2: "members=2", 4: "members=4", 8: "members=8"}[members]
		b.Run(name, func(b *testing.B) {
			as := make([]Analysis, members)
			for i := range as {
				as[i] = &nopAnalysis{name: "nop"}
			}
			m := NewMux(as...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.OnSharedAccess(1, 10, 0x1000, 8, true)
			}
		})
	}
}
