package umbra

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

func fixture(t *testing.T) (*guest.Process, *Umbra, *stats.Clock) {
	t.Helper()
	b := isa.NewBuilder("umbra")
	b.GlobalArray(2048) // 16 KiB data
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	clk := &stats.Clock{}
	u := Attach(p, clk)
	return p, u, clk
}

func TestRegionsFromVMAs(t *testing.T) {
	p, u, _ := fixture(t)
	// text, data, stack1 at minimum.
	if u.Regions() < 3 {
		t.Fatalf("Regions = %d, want >= 3", u.Regions())
	}
	base, _ := p.Mmap(2*vm.PageSize, pagetable.ProtRW)
	before := u.Regions()
	_ = base
	if u.Regions() != before {
		t.Fatalf("mmap region double counted")
	}
	r, off, ok := u.Translate(1, base+100)
	if !ok || off != 100 || r.Kind != guest.VMAMmap {
		t.Errorf("translate mmap: r=%v off=%d ok=%v", r, off, ok)
	}
}

func TestShadowAndMirrorVMAsNotTracked(t *testing.T) {
	p, u, _ := fixture(t)
	before := u.Regions()
	p.MapShadow(0x7000_0000_0000, 4, "shadowtest")
	if u.Regions() != before {
		t.Error("shadow VMA registered as app region")
	}
	orig := p.FindVMA(isa.DataBase)
	p.MapAlias(orig, 0x7100_0000_0000, pagetable.ProtRW, guest.VMAMirror, "m")
	if u.Regions() != before {
		t.Error("mirror VMA registered as app region")
	}
}

func TestTranslateCaches(t *testing.T) {
	_, u, _ := fixture(t)
	// First touch: global lookup; subsequent same-region: inline hits.
	u.Translate(1, isa.DataBase)
	u.Translate(1, isa.DataBase+8)
	u.Translate(1, isa.DataBase+4096)
	if u.Stats.GlobalLookups != 1 || u.Stats.InlineHits != 2 {
		t.Errorf("cache stats: %+v", u.Stats)
	}
	// Different thread has its own cache.
	u.Translate(2, isa.DataBase)
	if u.Stats.GlobalLookups != 2 {
		t.Errorf("per-thread cache shared: %+v", u.Stats)
	}
	// Region switch misses the inline cache.
	u.Translate(1, isa.CodeBase)
	if u.Stats.GlobalLookups != 3 {
		t.Errorf("region switch served from inline cache: %+v", u.Stats)
	}
}

func TestTranslateChargesCycles(t *testing.T) {
	_, u, clk := fixture(t)
	u.Translate(1, isa.DataBase) // miss
	miss := clk.Cycles()
	if miss != stats.ShadowTranslateMiss {
		t.Errorf("miss cost = %d, want %d", miss, stats.ShadowTranslateMiss)
	}
	u.Translate(1, isa.DataBase+16) // hit
	if clk.Cycles()-miss != stats.ShadowTranslate {
		t.Errorf("hit cost = %d, want %d", clk.Cycles()-miss, stats.ShadowTranslate)
	}
}

func TestTranslateOutsideRegions(t *testing.T) {
	_, u, _ := fixture(t)
	if _, _, ok := u.Translate(1, 0xdead_0000_0000); ok {
		t.Error("translated an unmapped address")
	}
	if u.Stats.Misses != 1 {
		t.Errorf("Misses = %d", u.Stats.Misses)
	}
}

func TestRegionRemoval(t *testing.T) {
	p, u, _ := fixture(t)
	base, _ := p.Mmap(vm.PageSize, pagetable.ProtRW)
	if _, _, ok := u.Translate(1, base); !ok {
		t.Fatal("mmap region not translatable")
	}
	var removed []*Region
	u.OnRegionRemoved(func(r *Region) { removed = append(removed, r) })
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := u.Translate(1, base); ok {
		t.Error("stale region translated after munmap")
	}
	if len(removed) != 1 {
		t.Errorf("removal callbacks = %d, want 1", len(removed))
	}
}

func TestShadowMapCells(t *testing.T) {
	_, u, _ := fixture(t)
	sm := NewShadowMap[uint64](u, 8)
	c1 := sm.Get(1, isa.DataBase)
	c2 := sm.Get(1, isa.DataBase+4) // same 8-byte granule
	c3 := sm.Get(1, isa.DataBase+8) // next granule
	if c1 == nil || c1 != c2 || c1 == c3 {
		t.Errorf("granule mapping wrong: %p %p %p", c1, c2, c3)
	}
	*c1 = 42
	if *sm.Get(1, isa.DataBase+7) != 42 {
		t.Error("cell not shared within granule")
	}
	if sm.Allocations != 1 {
		t.Errorf("Allocations = %d, want 1 (lazy per region)", sm.Allocations)
	}
	// Outside any region: nil.
	if sm.Get(1, 0xdead_0000_0000) != nil {
		t.Error("cell for unmapped address")
	}
}

// TestShadowMapRegionCells: Cells hands out a region's whole shadow,
// the cells Lookup translates to, allocating it once and charging,
// counting and memoizing nothing.
func TestShadowMapRegionCells(t *testing.T) {
	p, u, clk := fixture(t)
	sm := NewShadowMap[uint16](u, 8)
	r := u.Region(p.FindVMA(isa.DataBase))
	cells := sm.Cells(r)
	if want := int((r.End - r.Base) / 8); len(cells) != want {
		t.Fatalf("len(Cells) = %d, want %d, one per 8-byte granule", len(cells), want)
	}
	if clk.Cycles() != 0 || u.Stats != (Stats{}) {
		t.Errorf("Cells charged %d cycles, stats %+v; want none", clk.Cycles(), u.Stats)
	}
	if &sm.Cells(r)[0] != &cells[0] || sm.Allocations != 1 {
		t.Errorf("second Cells reallocated (Allocations = %d)", sm.Allocations)
	}
	cells[3] = 9
	if c, _ := sm.Lookup(1, isa.DataBase+3*8+5); c != &cells[3] || sm.Allocations != 1 {
		t.Errorf("Lookup = %p, want Cells' cell %p in the same allocation", c, &cells[3])
	}
}

func TestShadowMapPageGranule(t *testing.T) {
	_, u, _ := fixture(t)
	sm := NewShadowMap[uint8](u, vm.PageSize)
	a := sm.Get(1, isa.DataBase+10)
	b := sm.Get(1, isa.DataBase+vm.PageSize-1)
	c := sm.Get(1, isa.DataBase+vm.PageSize)
	if a != b || a == c {
		t.Error("page granule mapping wrong")
	}
}

func TestShadowMapDropsCellsWithRegion(t *testing.T) {
	p, u, _ := fixture(t)
	sm := NewShadowMap[uint32](u, 8)
	base, _ := p.Mmap(vm.PageSize, pagetable.ProtRW)
	cell, r := sm.Lookup(1, base+12)
	*cell = 7
	if got := sm.Peek(base + 15); got != cell || *got != 7 {
		t.Fatalf("Peek before munmap = %p, want the cell %p holding 7", got, cell)
	}
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if got := sm.Peek(base + 12); got != nil {
		t.Errorf("Peek after munmap = %p, want nil", got)
	}
	if sm.cells[r.ID] != nil {
		t.Error("shadow cells not released with region")
	}
}

func TestZeroGranulePanics(t *testing.T) {
	_, u, _ := fixture(t)
	defer func() {
		if recover() == nil {
			t.Error("zero granule accepted")
		}
	}()
	NewShadowMap[int](u, 0)
}

// TestGranuleNotPowerOfTwoPanics: a cell index is a shift, so a granule
// that is not a power of two has no cell layout.
func TestGranuleNotPowerOfTwoPanics(t *testing.T) {
	_, u, _ := fixture(t)
	defer func() {
		if recover() == nil {
			t.Error("granule 12 accepted")
		}
	}()
	NewShadowMap[int](u, 12)
}
