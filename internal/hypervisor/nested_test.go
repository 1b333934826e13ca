package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// nestedFixture builds a loaded guest process with a NestedPaging AikidoVM.
func nestedFixture(t *testing.T) (*guest.Process, *Hypervisor) {
	t.Helper()
	b := isa.NewBuilder("nestedtest")
	b.GlobalArray(1024)
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	h := NewNested(p.M, p.PT, &stats.Clock{})
	return p, h
}

func TestNestedModeReported(t *testing.T) {
	_, h := nestedFixture(t)
	if h.Mode() != NestedPaging {
		t.Fatalf("Mode = %v, want NestedPaging", h.Mode())
	}
	if got := NestedPaging.String(); got != "nested-paging" {
		t.Errorf("String = %q", got)
	}
	if got := ShadowPaging.String(); got != "shadow-paging" {
		t.Errorf("String = %q", got)
	}
}

func TestNestedPerThreadProtection(t *testing.T) {
	_, h := nestedFixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)

	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil || !fault.Aikido {
		t.Fatal("protected page readable under nested paging")
	}
	lib.UnprotectForThread(1, vpn)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatalf("thread 1 still faults: %v", fault)
	}
	if _, fault := h.Load(2, isa.DataBase, 8, true); fault == nil || !fault.Aikido {
		t.Fatal("thread 2 not isolated under nested paging")
	}
	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("global protect did not clear per-thread EPT override")
	}
}

// TestNestedAliasInheritsFrameProtection exercises the EPT hazard the
// nested mode exists to expose: protections attach to guest-physical
// frames, so an *unregistered* virtual alias of a protected page faults
// too.
func TestNestedAliasInheritsFrameProtection(t *testing.T) {
	p, h := nestedFixture(t)
	lib := h.Lib()

	data := p.FindVMA(isa.DataBase)
	if data == nil {
		t.Fatal("no data VMA")
	}
	const aliasBase = 0x7100_0000_0000
	p.MapAlias(data, aliasBase, pagetable.ProtRW, guest.VMAMirror, "alias")

	lib.RearmPage(vm.PageNum(isa.DataBase), guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("primary mapping not protected")
	}
	if _, fault := h.Load(1, aliasBase, 8, true); fault == nil {
		t.Fatal("unregistered alias should inherit the frame protection under EPT")
	}

	// Registering the range as a mirror installs the alternate EPT view:
	// the alias reads through while the primary stays protected.
	lib.RegisterMirrorRange(vm.PageNum(aliasBase), data.Pages)
	if _, fault := h.Load(1, aliasBase, 8, true); fault != nil {
		t.Fatalf("registered mirror alias faults: %v", fault)
	}
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("primary mapping lost its protection")
	}
}

// TestShadowAliasUnaffected pins the shadow-paging contrast: vpn-keyed
// protections never touch an alias, registered or not.
func TestShadowAliasUnaffected(t *testing.T) {
	p, h := fixture(t)
	lib := h.Lib()

	data := p.FindVMA(isa.DataBase)
	const aliasBase = 0x7100_0000_0000
	p.MapAlias(data, aliasBase, pagetable.ProtRW, guest.VMAMirror, "alias")

	lib.RearmPage(vm.PageNum(isa.DataBase), guest.NoTID)
	if _, fault := h.Load(1, aliasBase, 8, true); fault != nil {
		t.Fatalf("alias faults under shadow paging: %v", fault)
	}
}

// TestNestedCoherentThroughAlias checks that a write through the registered
// mirror is visible at the protected primary once it is unprotected — both
// map the same machine frames.
func TestNestedCoherentThroughAlias(t *testing.T) {
	p, h := nestedFixture(t)
	lib := h.Lib()
	data := p.FindVMA(isa.DataBase)
	const aliasBase = 0x7100_0000_0000
	p.MapAlias(data, aliasBase, pagetable.ProtRW, guest.VMAMirror, "alias")
	lib.RegisterMirrorRange(vm.PageNum(aliasBase), data.Pages)

	lib.RearmPage(vm.PageNum(isa.DataBase), guest.NoTID)
	if fault := h.Store(1, aliasBase+64, 8, 0xabcd, true); fault != nil {
		t.Fatalf("mirror store faults: %v", fault)
	}
	lib.ClearRange(vm.PageNum(isa.DataBase), 1)
	v, fault := h.Load(1, isa.DataBase+64, 8, true)
	if fault != nil {
		t.Fatalf("primary load faults after clear: %v", fault)
	}
	if v != 0xabcd {
		t.Errorf("primary read %#x, want 0xabcd", v)
	}
}

// TestNestedNoPTUpdateTraps checks the headline nested-paging advantage:
// guest page-table updates do not exit to the hypervisor.
func TestNestedNoPTUpdateTraps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nested bool
	}{{"shadow", false}, {"nested", true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder("pttest")
			b.Nop().Halt()
			p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
			if err != nil {
				t.Fatal(err)
			}
			clock := &stats.Clock{}
			var h *Hypervisor
			if tc.nested {
				h = NewNested(p.M, p.PT, clock)
			} else {
				h = New(p.M, p.PT, clock)
			}

			pre := clock.Cycles()
			if _, err := p.Mmap(4*vm.PageSize, pagetable.ProtRW); err != nil { // guest PT writes
				t.Fatal(err)
			}
			traps := h.Stats.GuestPTUpdates
			cost := clock.Cycles() - pre
			if tc.nested {
				if traps != 0 || cost != 0 {
					t.Errorf("nested paging trapped %d PT updates (%d cycles)", traps, cost)
				}
			} else {
				if traps == 0 || cost == 0 {
					t.Errorf("shadow paging did not trap PT updates (traps=%d cost=%d)", traps, cost)
				}
			}
		})
	}
}

// TestNestedTLBMissCostlier pins the other side of the trade: each
// translation-cache fill costs more under nested paging (two-dimensional
// walk) than under shadow paging (shadow fill).
func TestNestedTLBMissCostlier(t *testing.T) {
	fill := func(nested bool) uint64 {
		b := isa.NewBuilder("misstest")
		b.GlobalArray(8)
		b.Nop().Halt()
		p, _ := guest.NewProcess(vm.NewMachine(), b.MustFinish())
		clock := &stats.Clock{}
		var h *Hypervisor
		if nested {
			h = NewNested(p.M, p.PT, clock)
		} else {
			h = New(p.M, p.PT, clock)
		}
		pre := clock.Cycles()
		h.Load(1, isa.DataBase, 8, true)
		return clock.Cycles() - pre
	}
	s, n := fill(false), fill(true)
	if n <= s {
		t.Errorf("nested fill (%d) should cost more than shadow fill (%d)", n, s)
	}
}

func TestSwitchInterceptionProperties(t *testing.T) {
	if !SwitchHypercall.RequiresGuestModification() {
		t.Error("kernel hypercall should require guest modification")
	}
	if SwitchSegTrap.RequiresGuestModification() || SwitchProbe.RequiresGuestModification() {
		t.Error("FS/GS trap and trampoline probe must work on unmodified guests")
	}
	names := map[SwitchInterception]string{
		SwitchHypercall: "kernel-hypercall",
		SwitchSegTrap:   "fsgs-trap",
		SwitchProbe:     "trampoline-probe",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestSwitchCostOrdering: the hypercall is the cheapest notification (it is
// the most invasive), the runtime probe the dearest; every mechanism
// charges something.
func TestSwitchCostOrdering(t *testing.T) {
	costPer := func(mode SwitchInterception, nested bool) uint64 {
		b := isa.NewBuilder("swtest")
		b.Nop().Halt()
		p, _ := guest.NewProcess(vm.NewMachine(), b.MustFinish())
		clock := &stats.Clock{}
		var h *Hypervisor
		if nested {
			h = NewNested(p.M, p.PT, clock)
		} else {
			h = New(p.M, p.PT, clock)
		}
		h.SetSwitchInterception(mode)
		h.ContextSwitch(1, 2)
		return clock.Cycles()
	}
	hc := costPer(SwitchHypercall, false)
	seg := costPer(SwitchSegTrap, false)
	probe := costPer(SwitchProbe, false)
	if !(hc < seg && seg < probe) {
		t.Errorf("want hypercall < segtrap < probe, got %d %d %d", hc, seg, probe)
	}
	if hc == 0 {
		t.Error("switch interception should cost cycles")
	}
	// Nested paging's EPTP switch beats the shadow-root swap at equal
	// interception mechanism.
	if n := costPer(SwitchHypercall, true); n >= hc {
		t.Errorf("nested switch (%d) should undercut shadow switch (%d)", n, hc)
	}
}

// TestNestedUnmappedProtFallback covers a protection request for a page
// with no current guest mapping under nested paging: there is no frame to
// attach EPT permissions to, so the request is dropped — nothing is stored,
// the hypercall is still counted, and the page is unprotected once mapped.
func TestNestedUnmappedProtFallback(t *testing.T) {
	p, h := nestedFixture(t)
	lib := h.Lib()
	const ghost = uint64(0x7fff_0000) // not mapped yet
	pre := h.Stats.Hypercalls
	lib.RearmPage(ghost, guest.NoTID) // must not panic
	lib.RearmPage(ghost, 1)
	lib.ClearRange(ghost, 1)
	if got := h.Stats.Hypercalls - pre; got != 3 {
		t.Errorf("hypercalls = %d, want 3", got)
	}
	if h.prot.Get(ghost) != nil {
		t.Error("protection table grew for an unmapped page")
	}
	lib.RearmPage(ghost, guest.NoTID)
	p.PT.Map(ghost, p.M.AllocFrame(), pagetable.ProtRW)
	if _, fault := h.Load(2, ghost<<12, 8, true); fault != nil {
		t.Errorf("request made while unmapped protects the page: %v", fault)
	}
}

func TestNestedKernelEmulationPath(t *testing.T) {
	_, h := nestedFixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)
	lib.RearmPage(vpn, guest.NoTID)

	// Kernel access to the protected page: emulated, never faults.
	if _, fault := h.Load(1, isa.DataBase, 8, false); fault != nil {
		t.Fatalf("kernel load faulted: %v", fault)
	}
	if h.Stats.KernelEmulations != 1 || h.Stats.TempUnprotects != 1 {
		t.Errorf("emulations=%d tempUnprot=%d, want 1/1",
			h.Stats.KernelEmulations, h.Stats.TempUnprotects)
	}
	// Next userspace touch of the page restores protections (and faults).
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("userspace access after kernel emulation should fault")
	}
	if h.Stats.Reprotects != 1 {
		t.Errorf("Reprotects = %d, want 1", h.Stats.Reprotects)
	}
}
