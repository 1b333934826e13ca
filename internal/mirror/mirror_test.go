package mirror

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

func fixture(t *testing.T) (*guest.Process, *Manager) {
	t.Helper()
	b := isa.NewBuilder("mirror")
	b.GlobalArray(512)
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	return p, Attach(p)
}

func TestAllAppSegmentsMirrored(t *testing.T) {
	p, m := fixture(t)
	for _, v := range p.VMAs() {
		switch v.Kind {
		case guest.VMAShadow, guest.VMAMirror:
			continue
		}
		ma, ok := m.Translate(v.Base)
		if !ok {
			t.Errorf("segment %v has no mirror", v)
			continue
		}
		mv := p.FindVMA(ma)
		if mv == nil || mv.Kind != guest.VMAMirror {
			t.Errorf("mirror address %#x not a mirror VMA", ma)
		}
		if mv.Backing != v.Backing {
			t.Errorf("mirror of %v does not alias backing", v)
		}
	}
	if m.Mirrored < 3 {
		t.Errorf("Mirrored = %d, want >= 3", m.Mirrored)
	}
}

func TestMirrorSeesWritesThroughOriginal(t *testing.T) {
	p, m := fixture(t)
	// Write through the original mapping, read through the mirror.
	pte, fault := p.PT.Walk(isa.DataBase, pagetable.AccessWrite, true)
	if fault != nil {
		t.Fatal(fault)
	}
	p.M.WriteU(pte.Frame, 24, 8, 0xfeed)
	ma, ok := m.Translate(isa.DataBase + 24)
	if !ok {
		t.Fatal("no mirror for data")
	}
	mpte, fault := p.PT.Walk(ma, pagetable.AccessRead, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v := p.M.ReadU(mpte.Frame, vm.PageOff(ma), 8); v != 0xfeed {
		t.Errorf("mirror read %#x, want 0xfeed", v)
	}
}

func TestMmapInterception(t *testing.T) {
	p, m := fixture(t)
	before := m.Mirrored
	base, _ := p.Mmap(2*vm.PageSize, pagetable.ProtRW)
	if m.Mirrored != before+1 {
		t.Fatal("new mmap not mirrored")
	}
	ma, ok := m.Translate(base + vm.PageSize + 8)
	if !ok {
		t.Fatal("mmap address not translatable")
	}
	if vm.PageOff(ma) != 8 {
		t.Errorf("offset not preserved: %#x", ma)
	}
}

func TestBrkInterception(t *testing.T) {
	p, m := fixture(t)
	before := m.Mirrored
	if _, err := p.GrowBrk(isa.HeapBase + 3*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if m.Mirrored != before+1 {
		t.Fatal("brk growth not mirrored")
	}
	if _, ok := m.Translate(isa.HeapBase + vm.PageSize); !ok {
		t.Error("heap address not translatable")
	}
}

func TestMirrorAddressesAreUnprotectedRW(t *testing.T) {
	p, m := fixture(t)
	// Code is mapped RO, but its mirror must be RW (the mirror carries no
	// protection, §3.3.1).
	ma, ok := m.Translate(isa.CodeBase)
	if !ok {
		t.Fatal("code not mirrored")
	}
	if _, fault := p.PT.Walk(ma, pagetable.AccessWrite, true); fault != nil {
		t.Errorf("mirror not writable: %v", fault)
	}
}

func TestUnmapRemovesMirror(t *testing.T) {
	p, m := fixture(t)
	base, _ := p.Mmap(vm.PageSize, pagetable.ProtRW)
	ma, _ := m.Translate(base)
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Translate(base); ok {
		t.Error("stale mirror translation after munmap")
	}
	if p.FindVMA(ma) != nil {
		t.Error("mirror VMA survives original unmap")
	}
}

func TestTranslateOutsideSegments(t *testing.T) {
	_, m := fixture(t)
	if _, ok := m.Translate(0x123); ok {
		t.Error("translated junk address")
	}
}

func TestMirrorsDoNotOverlap(t *testing.T) {
	p, m := fixture(t)
	// Map several segments and ensure all mirror ranges are disjoint.
	for i := 0; i < 5; i++ {
		if _, err := p.Mmap(uint64(i+1)*vm.PageSize, pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	type rng struct{ lo, hi uint64 }
	var rs []rng
	for _, v := range p.VMAs() {
		if v.Kind == guest.VMAMirror {
			rs = append(rs, rng{v.Base, v.End()})
		}
	}
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].lo < rs[j].hi && rs[j].lo < rs[i].hi {
				t.Fatalf("mirrors overlap: %+v %+v", rs[i], rs[j])
			}
		}
	}
	_ = m
}
