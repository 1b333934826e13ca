package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

func benchFixture(b *testing.B) (*guest.Process, *Hypervisor) {
	b.Helper()
	bld := isa.NewBuilder("bench")
	bld.GlobalArray(4096)
	bld.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), bld.MustFinish())
	if err != nil {
		b.Fatal(err)
	}
	return p, New(p.M, p.PT, &stats.Clock{})
}

// BenchmarkTranslateTLBHit measures the host-TLB hit path taken by the
// vast majority of guest loads.
func BenchmarkTranslateTLBHit(b *testing.B) {
	_, h := benchFixture(b)
	h.Load(1, isa.DataBase, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := h.Load(1, isa.DataBase+uint64(i&4088), 8, true); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkTranslateTLBHitStore is its store twin, on a frame the first
// store has already given its own page.
func BenchmarkTranslateTLBHitStore(b *testing.B) {
	_, h := benchFixture(b)
	h.Store(1, isa.DataBase, 8, 0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := h.Store(1, isa.DataBase+uint64(i&4088), 8, uint64(i), true); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkShadowFill measures the two-level walk + shadow population path
// by invalidating between accesses.
func BenchmarkShadowFill(b *testing.B) {
	p, h := benchFixture(b)
	vpn := vm.PageNum(isa.DataBase)
	pte, _ := p.PT.Lookup(vpn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PT.Map(vpn, pte.Frame, pte.Prot) // trapped update → invalidate
		if _, f := h.Load(1, isa.DataBase, 8, true); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkAikidoFaultDelivery measures the full fake-fault path: protected
// page, fault classification, delivery bookkeeping.
func BenchmarkAikidoFaultDelivery(b *testing.B) {
	_, h := benchFixture(b)
	h.Lib().RearmPage(vm.PageNum(isa.DataBase), guest.NoTID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := h.Load(1, isa.DataBase, 8, true); f == nil {
			b.Fatal("expected fault")
		}
	}
}
