package sharing

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/umbra"
	"repro/internal/vm"
)

// mirrorFixture assembles the Aikido stack below the DBI engine for a
// tiny program: AikidoVM, AikidoLib, Umbra and AikidoSD with no analysis.
func mirrorFixture(t *testing.T) (*guest.Process, *hypervisor.Hypervisor, *umbra.Umbra, *Detector) {
	t.Helper()
	b := isa.NewBuilder("mirror")
	b.GlobalArray(512)
	b.Nop().Halt()
	m := vm.NewMachine()
	p, err := guest.NewProcess(m, b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	clock := &stats.Clock{}
	hv := hypervisor.New(m, p.PT, clock)
	lib := hypervisor.NewLib(p, hv)
	um := umbra.Attach(p, clock)
	return p, hv, um, Attach(p, lib, um, nil, clock)
}

// aliasOf returns the mirror alias AikidoSD recorded for segment v, or
// nil when v has no region or no VMA sits at the recorded offset.
func aliasOf(p *guest.Process, um *umbra.Umbra, v *guest.VMA) *guest.VMA {
	r := um.Region(v)
	if r == nil {
		return nil
	}
	return p.FindVMA(v.Base + r.Mirror)
}

// TestAllAppSegmentsMirrored: every application segment, code included,
// has a read-write alias that shares its backing, at the offset recorded
// on its Umbra region.
func TestAllAppSegmentsMirrored(t *testing.T) {
	p, _, um, _ := mirrorFixture(t)
	segments := 0
	for _, v := range p.VMAs() {
		switch v.Kind {
		case guest.VMAShadow, guest.VMAMirror:
			continue
		}
		segments++
		a := aliasOf(p, um, v)
		switch {
		case a == nil:
			t.Errorf("segment %v has no mirror at its recorded offset", v)
		case a.Kind != guest.VMAMirror || a.MirrorOf != v:
			t.Errorf("recorded offset of %v lands in %v, not its mirror", v, a)
		case a.Base != v.Base+um.Region(v).Mirror:
			t.Errorf("mirror of %v starts at %#x, want %#x", v, a.Base, v.Base+um.Region(v).Mirror)
		case a.Backing != v.Backing:
			t.Errorf("mirror of %v does not alias its backing", v)
		case a.Prot != pagetable.ProtRW:
			t.Errorf("mirror of %v is %v, want rw", v, a.Prot)
		}
	}
	if segments < 3 {
		t.Errorf("%d application segments, want code, data and a stack", segments)
	}
	if a := aliasOf(p, um, p.FindVMA(isa.CodeBase)); a == nil || a.Base != MirrorBase {
		t.Errorf("code mirror = %v, want the first alias at %#x", a, MirrorBase)
	}
}

func TestMirrorSeesWritesThroughOriginal(t *testing.T) {
	p, _, um, _ := mirrorFixture(t)
	// Write through the original mapping, read through the mirror.
	pte, fault := p.PT.Walk(isa.DataBase, pagetable.AccessWrite, true)
	if fault != nil {
		t.Fatal(fault)
	}
	p.M.WriteU(pte.Frame, 24, 8, 0xfeed)
	ma := isa.DataBase + 24 + um.Region(p.FindVMA(isa.DataBase)).Mirror
	mpte, fault := p.PT.Walk(ma, pagetable.AccessRead, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v := p.M.ReadU(mpte.Frame, vm.PageOff(ma), 8); v != 0xfeed {
		t.Errorf("mirror read %#x, want 0xfeed", v)
	}
}

// TestMmapInterception: an mmap segment is mirrored when it is created,
// and the alias preserves each address's page offset.
func TestMmapInterception(t *testing.T) {
	p, _, um, _ := mirrorFixture(t)
	base, err := p.Mmap(2*vm.PageSize, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	v := p.FindVMA(base)
	if aliasOf(p, um, v) == nil {
		t.Fatal("new mmap not mirrored")
	}
	if ma := base + vm.PageSize + 8 + um.Region(v).Mirror; vm.PageOff(ma) != 8 {
		t.Errorf("offset not preserved: %#x", ma)
	}
}

// TestBrkInterception: each growth of the break is mirrored when it is
// created.
func TestBrkInterception(t *testing.T) {
	p, _, um, _ := mirrorFixture(t)
	if _, err := p.GrowBrk(isa.HeapBase + 3*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if aliasOf(p, um, p.FindVMA(isa.HeapBase+vm.PageSize)) == nil {
		t.Error("brk growth not mirrored")
	}
}

// TestMirrorAddressesAreUnprotectedRW: the code segment is mapped
// read-only and AikidoSD protects it, but its mirror carries no
// protection (§3.3.1): a thread that may not touch the code page writes
// its alias.
func TestMirrorAddressesAreUnprotectedRW(t *testing.T) {
	p, hv, um, _ := mirrorFixture(t)
	ma := isa.CodeBase + um.Region(p.FindVMA(isa.CodeBase)).Mirror
	if _, fault := p.PT.Walk(ma, pagetable.AccessWrite, true); fault != nil {
		t.Errorf("mirror not writable in the guest page table: %v", fault)
	}
	if _, fault := hv.Load(1, isa.CodeBase, 8, true); fault == nil || !fault.Aikido {
		t.Errorf("code page not Aikido-protected: fault %v", fault)
	}
	if fault := hv.Store(1, ma, 8, 1, true); fault != nil {
		t.Errorf("mirror not writable through AikidoVM: %v", fault)
	}
}

// TestUnmapRemovesMirror: munmap of a segment removes its alias and its
// offset, and frees the frames the two mappings shared.
func TestUnmapRemovesMirror(t *testing.T) {
	p, _, um, d := mirrorFixture(t)
	frames := p.M.Frames()
	base, err := p.Mmap(vm.PageSize, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	v := p.FindVMA(base)
	ma := base + um.Region(v).Mirror
	if err := p.Munmap(base); err != nil {
		t.Fatal(err)
	}
	if p.FindVMA(ma) != nil {
		t.Error("mirror VMA survives original unmap")
	}
	if um.Region(v) != nil {
		t.Error("unmapped segment keeps its region and offset")
	}
	if got := d.directPlan.PreAccess(1, 0, base, 8, true); got != base {
		t.Errorf("access to the unmapped segment redirected to %#x", got)
	}
	if p.M.Frames() != frames {
		t.Errorf("frames leaked: %d -> %d", frames, p.M.Frames())
	}
}

// TestTranslateOutsideSegments: an instrumented access outside every
// segment is not redirected, and a shared-page access is redirected to
// its alias with one Umbra translation.
func TestTranslateOutsideSegments(t *testing.T) {
	p, _, um, d := mirrorFixture(t)
	for i, plan := range []*dbi.Plan{d.directPlan, d.indirectPlan} {
		if got := plan.PreAccess(1, 0, 0x123, 8, false); got != 0x123 {
			t.Errorf("plan %d: junk address redirected to %#x", i, got)
		}
	}

	d.pages.Get(1, isa.DataBase).State = Shared
	addr := isa.DataBase + 16
	want := addr + um.Region(p.FindVMA(isa.DataBase)).Mirror
	before := um.Stats
	if got := d.directPlan.PreAccess(1, 0, addr, 8, true); got != want {
		t.Errorf("shared access redirected to %#x, want %#x", got, want)
	}
	if n := um.Stats.InlineHits + um.Stats.GlobalLookups - before.InlineHits - before.GlobalLookups; n != 1 {
		t.Errorf("redirect made %d Umbra translations, want 1", n)
	}
}

// TestMirrorsDoNotOverlap: aliases never overlap, and a guard page keeps
// adjacent ones from abutting.
func TestMirrorsDoNotOverlap(t *testing.T) {
	p, _, _, _ := mirrorFixture(t)
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
			if rs[i].lo <= rs[j].hi && rs[j].lo <= rs[i].hi {
				t.Fatalf("mirrors overlap or abut: %+v %+v", rs[i], rs[j])
			}
		}
	}
}
