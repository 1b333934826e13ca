package umbra

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

func benchFixture(b *testing.B) (*guest.Process, *Umbra) {
	b.Helper()
	bld := isa.NewBuilder("bench")
	bld.GlobalArray(4096)
	bld.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), bld.MustFinish())
	if err != nil {
		b.Fatal(err)
	}
	return p, Attach(p, &stats.Clock{})
}

// BenchmarkTranslateInlineHit measures the per-thread memoization cache
// path — the common case Umbra's performance claims rest on.
func BenchmarkTranslateInlineHit(b *testing.B) {
	_, u := benchFixture(b)
	u.Translate(1, isa.DataBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Translate(1, isa.DataBase+uint64(i&4095))
	}
}

// BenchmarkTranslateRegionSwitch alternates regions, defeating the inline
// cache (the lean-procedure fallback).
func BenchmarkTranslateRegionSwitch(b *testing.B) {
	_, u := benchFixture(b)
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			u.Translate(1, isa.DataBase)
		} else {
			u.Translate(1, isa.CodeBase)
		}
	}
}

// BenchmarkShadowMapGet measures the metadata cell lookup used on every
// instrumented access.
func BenchmarkShadowMapGet(b *testing.B) {
	_, u := benchFixture(b)
	sm := NewShadowMap[uint64](u, 8)
	sm.Get(1, isa.DataBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sm.Get(1, isa.DataBase+uint64(i&8191))
		*c++
	}
}
