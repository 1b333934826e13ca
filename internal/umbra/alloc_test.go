package umbra

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// TestTranslateHitNoAllocs pins the allocation-free guarantee of the
// fixed-array last-hit cache: a warm translation allocates nothing.
func TestTranslateHitNoAllocs(t *testing.T) {
	_, u, _ := fixture(t)
	addr := isa.DataBase + 64
	if _, _, ok := u.Translate(1, addr); !ok {
		t.Fatalf("translate of data address %#x failed", addr)
	}
	if n := testing.AllocsPerRun(200, func() {
		u.Translate(1, addr)
	}); n != 0 {
		t.Errorf("warm Translate allocates %.1f objects per call, want 0", n)
	}
}

// TestShadowMapGetNoAllocs pins the same for the region-indexed cell
// lookup once the region's shadow is materialized.
func TestShadowMapGetNoAllocs(t *testing.T) {
	_, u, _ := fixture(t)
	s := NewShadowMap[uint64](u, 8)
	addr := isa.DataBase + 128
	if s.Get(1, addr) == nil {
		t.Fatalf("shadow cell for %#x missing", addr)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Get(1, addr)
	}); n != 0 {
		t.Errorf("warm ShadowMap.Get allocates %.1f objects per call, want 0", n)
	}
}

// BenchmarkPipelineTranslate measures the warm translation path — the cost
// every shadow-metadata lookup pays before reaching its cell.
func BenchmarkPipelineTranslate(b *testing.B) {
	bld := isa.NewBuilder("bench")
	bld.GlobalArray(2048)
	bld.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), bld.MustFinish())
	if err != nil {
		b.Fatal(err)
	}
	u := Attach(p, &stats.Clock{})
	addr := isa.DataBase + 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Translate(1, addr)
	}
}
