package hypervisor

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// TestTLBWarmHitPath pins the host TLB's hit path: once a thread's loads
// and a store have warmed its entry for a written page, N loads and N
// stores anywhere inside the page are 2N TLBHits, fill nothing and
// allocate nothing, and read back what they wrote.
func TestTLBWarmHitPath(t *testing.T) {
	_, h := fixture(t)
	if fault := h.Store(1, isa.DataBase, 8, 1, true); fault != nil {
		t.Fatal(fault)
	}
	fills, hits := h.Stats.ShadowFills, h.Stats.TLBHits
	const n = 64
	round := func() {
		for i := uint64(0); i < n; i++ {
			addr := isa.DataBase + i*64
			if fault := h.Store(1, addr, 8, i, true); fault != nil {
				t.Fatal(fault)
			}
			if v, fault := h.Load(1, addr, 8, true); fault != nil || v != i {
				t.Fatalf("load %#x = %d, %v; want %d", addr, v, fault, i)
			}
		}
	}
	round()
	if got := h.Stats.TLBHits - hits; got != 2*n {
		t.Errorf("TLBHits rose by %d over %d loads and %d stores, want %d", got, n, n, 2*n)
	}
	if h.Stats.ShadowFills != fills {
		t.Errorf("ShadowFills rose by %d on a warm page, want 0", h.Stats.ShadowFills-fills)
	}
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("a warm round allocates %.1f objects, want 0", a)
	}
}

// TestTLBFirstStoreMaterializes: a load warms the TLB entry of a page whose
// frame was never written, and the first store to it leaves the hit path
// for Access, where the machine gives the frame its own page. It is still
// one shadow hit, counted once, and the next store takes the hit path.
func TestTLBFirstStoreMaterializes(t *testing.T) {
	p, h := fixture(t)
	pte, _ := p.PT.Lookup(vm.PageNum(isa.DataBase))
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatal(fault)
	}
	if p.M.Materialized(pte.Frame) {
		t.Fatal("a load materialized the frame")
	}
	fills, hits := h.Stats.ShadowFills, h.Stats.TLBHits
	if fault := h.Store(1, isa.DataBase+16, 8, 42, true); fault != nil {
		t.Fatal(fault)
	}
	if !p.M.Materialized(pte.Frame) {
		t.Fatal("the first store did not materialize the frame")
	}
	if h.Stats.TLBHits != hits+1 || h.Stats.ShadowFills != fills {
		t.Errorf("first store: TLBHits +%d, ShadowFills +%d; want +1, +0",
			h.Stats.TLBHits-hits, h.Stats.ShadowFills-fills)
	}
	if fault := h.Store(1, isa.DataBase+24, 8, 7, true); fault != nil {
		t.Fatal(fault)
	}
	if v, _ := h.Load(1, isa.DataBase+16, 8, true); v != 42 {
		t.Errorf("load after the first store = %d, want 42", v)
	}
	if v, _ := h.Load(1, isa.DataBase+24, 8, true); v != 7 {
		t.Errorf("load after a hit-path store = %d, want 7", v)
	}
	if h.Stats.TLBHits != hits+4 || h.Stats.ShadowFills != fills {
		t.Errorf("four accesses: TLBHits +%d, ShadowFills +%d; want +4, +0",
			h.Stats.TLBHits-hits, h.Stats.ShadowFills-fills)
	}
}
