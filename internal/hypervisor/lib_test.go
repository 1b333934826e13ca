package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// libFixture builds a process with dataPages data pages and AikidoLib,
// initialized as the system assembly does, over a fresh hypervisor. User
// accesses go to the hypervisor, as the engine's do. Tests whose body runs
// as a "shadow" subtest name the paging AikidoVM uses (§3.2.2).
func libFixture(t *testing.T, dataPages int) (*guest.Process, *Hypervisor, *Lib) {
	t.Helper()
	b := isa.NewBuilder("libtest")
	b.GlobalArray(dataPages * vm.PageSize / 8)
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	h := New(p.M, p.PT, &stats.Clock{})
	return p, h, NewLib(p, h)
}

// TestLibChargesAtCountSites: each AikidoLib mutator is one hypercall,
// raising Stats.Hypercalls by one and the clock by exactly stats.Hypercall
// (UnprotectReprotect is two, and raises both twice);
// a trapped guest page-table write, a first user load (a shadow fill) and
// a context switch each raise their counter by one and the clock by
// exactly their cost; and a guest-kernel read of a protected byte through
// the kernel bus is one emulation, raising KernelEmulations by one and the
// clock by exactly stats.KernelEmulation, without faulting.
func TestLibChargesAtCountSites(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		p, h, lib := libFixture(t, 2)
		vpn := vm.PageNum(isa.DataBase)
		for _, c := range []struct {
			name  string
			call  func()
			count *uint64 // the counter the call raises
			n     uint64  // by how much
			cost  uint64  // the cycles it charges
		}{
			{"RegisterFaultPages", func() { lib.RegisterFaultPages(h.faultPageRead, h.faultPageWrite, h.faultAddrSlot) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"SetThreadProt", func() { lib.SetThreadProt(1, vpn, pagetable.ProtRO) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"UnprotectForThread", func() { lib.UnprotectForThread(2, vpn) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"RegisterMirrorRange", func() { lib.RegisterMirrorRange(vm.PageNum(0x7100_0000_0000), 2) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"ProtectRange", func() { lib.ProtectRange(vpn, 2) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"RearmPage", func() { lib.RearmPage(vpn, 1) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"ClearRange", func() { lib.ClearRange(vpn, 2) }, &h.Stats.Hypercalls, 1, stats.Hypercall},
			{"UnprotectReprotect", lib.UnprotectReprotect, &h.Stats.Hypercalls, 2, 2 * stats.Hypercall},
			{"guest PT write", func() {
				pte, _ := p.PT.Lookup(vpn)
				p.PT.SetProt(vpn, pte.Prot)
			}, &h.Stats.GuestPTUpdates, 1, stats.PTUpdateTrap},
			{"first user load", func() {
				if _, fault := h.Load(3, isa.DataBase, 8, true); fault != nil {
					t.Fatalf("load of a cleared page faulted: %v", fault)
				}
			}, &h.Stats.ShadowFills, 1, stats.ShadowFill},
			{"ContextSwitch", h.ContextSwitch, &h.Stats.ContextSwitches, 1, stats.ContextSwitch + stats.ShadowRootSwitch},
		} {
			count, cycles := *c.count, h.clock.Cycles()
			c.call()
			if got := *c.count - count; got != c.n {
				t.Errorf("%s counted %d, want %d", c.name, got, c.n)
			}
			if got := h.clock.Cycles() - cycles; got != c.cost {
				t.Errorf("%s charged %d cycles, want %d", c.name, got, c.cost)
			}
		}

		lib.RearmPage(vpn, guest.NoTID)
		emulations, cycles := h.Stats.KernelEmulations, h.clock.Cycles()
		if _, fault := p.KernelReadBytes(1, isa.DataBase+3, 1); fault != nil {
			t.Fatalf("kernel read of a protected byte faulted: %v", fault)
		}
		if got := h.Stats.KernelEmulations - emulations; got != 1 {
			t.Errorf("kernel read counted %d emulations, want 1", got)
		}
		if got := h.clock.Cycles() - cycles; got != stats.KernelEmulation {
			t.Errorf("kernel read charged %d cycles, want stats.KernelEmulation = %d", got, stats.KernelEmulation)
		}
	})
}

// TestPerThreadIsolation checks the core contract: protect-all,
// unprotect-for-one, and fault classification with the true faulting
// address.
func TestPerThreadIsolation(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h, lib := libFixture(t, 2)
		vpn := vm.PageNum(isa.DataBase)
		target := isa.DataBase + 24

		lib.RearmPage(vpn, guest.NoTID)
		_, fault := h.Load(1, target, 8, true)
		if fault == nil {
			t.Fatal("protected page readable")
		}
		addr, ours := lib.FaultInfo(fault)
		if !ours {
			t.Fatal("Aikido fault not classified as ours")
		}
		if addr != target {
			t.Fatalf("true fault address = %#x, want %#x", addr, target)
		}

		lib.UnprotectForThread(1, vpn)
		if _, fault := h.Load(1, target, 8, true); fault != nil {
			t.Fatalf("thread 1 still faults: %v", fault)
		}
		if _, fault := h.Load(2, target, 8, true); fault == nil {
			t.Fatal("thread 2 not isolated")
		}

		// Global reprotect clears the override.
		lib.RearmPage(vpn, guest.NoTID)
		if _, fault := h.Load(1, target, 8, true); fault == nil {
			t.Fatal("global protect did not clear thread 1's override")
		}
	})
}

// TestFutureThreadsInherit checks that a thread created after a protection
// was installed observes it (a protection row's default semantics).
func TestFutureThreadsInherit(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h, lib := libFixture(t, 2)
		lib.ProtectRange(vm.PageNum(isa.DataBase), 1)
		if _, fault := h.Load(42, isa.DataBase, 8, true); fault == nil {
			t.Fatal("future thread 42 not protected")
		}
	})
}

// TestGenuineFaultNotOurs: faults on unmapped memory must never be
// classified as Aikido faults.
func TestGenuineFaultNotOurs(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h, lib := libFixture(t, 2)
		_, fault := h.Load(1, 0xdead_0000_0000, 8, true)
		if fault == nil {
			t.Fatal("unmapped load succeeded")
		}
		if _, ours := lib.FaultInfo(fault); ours {
			t.Fatal("genuine fault classified as an Aikido fault")
		}
	})
}

// TestClearRangeRestoresAccess covers segment unmap cleanup: every page
// of a cleared range is free to every thread again.
func TestClearRangeRestoresAccess(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h, lib := libFixture(t, 2)
		vpn := vm.PageNum(isa.DataBase)
		lib.ProtectRange(vpn, 2)
		lib.ClearRange(vpn, 2)
		for _, addr := range []uint64{isa.DataBase, isa.DataBase + vm.PageSize} {
			if _, fault := h.Load(7, addr, 8, true); fault != nil {
				t.Fatalf("cleared page %#x still faults: %v", addr, fault)
			}
		}
	})
}

// TestWriteVisibleAcrossThreads: stores through one thread's view are
// visible to others (every view maps the same physical memory).
func TestWriteVisibleAcrossThreads(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h, _ := libFixture(t, 2)
		if fault := h.Store(1, isa.DataBase+8, 8, 0x1234, true); fault != nil {
			t.Fatalf("store faulted: %v", fault)
		}
		v, fault := h.Load(2, isa.DataBase+8, 8, true)
		if fault != nil {
			t.Fatalf("load faulted: %v", fault)
		}
		if v != 0x1234 {
			t.Errorf("read %#x, want 0x1234", v)
		}
	})
}
