package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// fixture builds a loaded guest process with an attached AikidoVM.
func fixture(t *testing.T) (*guest.Process, *Hypervisor) {
	t.Helper()
	b := isa.NewBuilder("hvtest")
	b.GlobalArray(1024) // 8 KiB of data → 2 data pages
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	h := New(p.M, p.PT, &stats.Clock{})
	return p, h
}

func TestTranslateUnrestricted(t *testing.T) {
	_, h := fixture(t)
	v, fault := h.Load(1, isa.DataBase, 8, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v != 0 {
		t.Errorf("fresh data = %#x", v)
	}
	if h.Stats.ShadowFills != 1 {
		t.Errorf("ShadowFills = %d, want 1", h.Stats.ShadowFills)
	}
	// Second access served from the shadow table.
	h.Load(1, isa.DataBase+8, 8, true)
	if h.Stats.TLBHits != 1 {
		t.Errorf("TLBHits = %d, want 1", h.Stats.TLBHits)
	}
}

func TestPerThreadProtection(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)

	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil || !fault.Aikido {
		t.Fatal("protected page readable / fault not classified Aikido")
	}

	// Unprotect for thread 1 only: thread 1 proceeds, thread 2 faults.
	lib.UnprotectForThread(1, vpn)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatalf("thread 1 still faults: %v", fault)
	}
	if _, fault := h.Load(2, isa.DataBase, 8, true); fault == nil || !fault.Aikido {
		t.Fatal("thread 2 not isolated from thread 1's unprotection")
	}

	// Global re-protection (page became shared) hits both threads,
	// clearing thread 1's override.
	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("global protect did not clear per-thread override")
	}
	if h.Stats.AikidoFaults < 3 {
		t.Errorf("AikidoFaults = %d, want >= 3", h.Stats.AikidoFaults)
	}
}

func TestFutureThreadsInheritDefaultProt(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)
	lib.RearmPage(vpn, guest.NoTID)
	// TID 99 never existed when the protection was installed.
	if _, fault := h.Load(99, isa.DataBase, 8, true); fault == nil || !fault.Aikido {
		t.Fatal("new thread not covered by default protection")
	}
}

func TestGuestFaultClassification(t *testing.T) {
	_, h := fixture(t)
	// Unmapped address: guest fault, not Aikido.
	if _, fault := h.Load(1, 0xdead0000, 8, true); fault == nil || fault.Aikido || !fault.Unmapped {
		t.Fatalf("unmapped fault misclassified: %+v", fault)
	}
	// Write to read-only code: guest fault.
	if fault := h.Store(1, isa.CodeBase, 8, 1, true); fault == nil || fault.Aikido {
		t.Fatalf("code write fault misclassified: %+v", fault)
	}
	if h.Stats.GuestFaults != 2 {
		t.Errorf("GuestFaults = %d, want 2", h.Stats.GuestFaults)
	}
}

func TestShadowInvalidationOnGuestPTUpdate(t *testing.T) {
	p, h := fixture(t)
	// Warm the shadow for thread 1.
	h.Load(1, isa.DataBase, 8, true)
	fills := h.Stats.ShadowFills
	// Guest OS changes the mapping (e.g. mprotect).
	p.PT.SetProt(vm.PageNum(isa.DataBase), pagetable.ProtRO)
	if h.Stats.ShadowInvalidations == 0 {
		t.Fatal("guest PT update did not invalidate shadow entries")
	}
	// Next access repopulates and respects the new protection.
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatalf("read after RO mprotect: %v", fault)
	}
	if h.Stats.ShadowFills != fills+1 {
		t.Error("shadow not repopulated after invalidation")
	}
	if fault := h.Store(1, isa.DataBase, 8, 1, true); fault == nil {
		t.Fatal("write allowed through stale shadow entry after mprotect(RO)")
	}
}

// TestNestedNoPTUpdateTraps pins the cost that nested paging, the
// alternative §3.2.2 names, would save: under shadow paging each guest
// page-table write an mmap makes traps to AikidoVM and is charged.
func TestNestedNoPTUpdateTraps(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		b := isa.NewBuilder("pttest")
		b.Nop().Halt()
		p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
		if err != nil {
			t.Fatal(err)
		}
		clock := &stats.Clock{}
		h := New(p.M, p.PT, clock)

		pre := clock.Cycles()
		if _, err := p.Mmap(4*vm.PageSize, pagetable.ProtRW); err != nil { // guest PT writes
			t.Fatal(err)
		}
		traps := h.Stats.GuestPTUpdates
		cost := clock.Cycles() - pre
		if traps == 0 || cost != traps*stats.PTUpdateTrap {
			t.Errorf("shadow paging trapped %d PT updates for %d cycles, want > 0 traps at stats.PTUpdateTrap = %d each", traps, cost, stats.PTUpdateTrap)
		}
	})
}

func TestKernelEmulationAndTempUnprotect(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)

	// Let thread 1 own the page, then protect it for everyone else; the
	// kernel (user=false) must still read it via emulation.
	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, false); fault != nil {
		t.Fatalf("kernel access faulted: %v", fault)
	}
	if h.Stats.KernelEmulations != 1 || h.Stats.TempUnprotects != 1 {
		t.Errorf("emulation stats: %+v", h.Stats)
	}
	if h.TempUnprotectedPages() != 1 {
		t.Error("page not in temp-unprotected set")
	}
	// Repeated kernel access to the same page: emulated again but no new
	// temp-unprotect bookkeeping.
	h.Load(1, isa.DataBase+8, 8, false)
	if h.Stats.TempUnprotects != 1 {
		t.Error("second kernel access re-unprotected the page")
	}
	// The next *user* access to the page restores protections and then
	// faults on the (still protected) page.
	_, fault := h.Load(1, isa.DataBase, 8, true)
	if fault == nil || !fault.Aikido {
		t.Fatalf("user access after kernel emulation: %+v", fault)
	}
	if h.TempUnprotectedPages() != 0 {
		t.Error("temp unprotection not restored on user fault")
	}
	if h.Stats.Reprotects != 1 {
		t.Errorf("Reprotects = %d, want 1", h.Stats.Reprotects)
	}
}

func TestFakeFaultDelivery(t *testing.T) {
	p, h := fixture(t)
	lib := h.Lib()

	// The runtime allocates the two delivery pages and the address slot
	// (in a shadow/runtime region AikidoSD never protects).
	readPage, _ := p.Mmap(vm.PageSize, pagetable.Prot(pagetable.ProtWrite|pagetable.ProtUser)) // no read
	writePage, _ := p.Mmap(vm.PageSize, pagetable.ProtRO)                                      // no write
	slotPage, _ := p.Mmap(vm.PageSize, pagetable.ProtRW)
	lib.RegisterFaultPages(readPage, writePage, slotPage)

	vpn := vm.PageNum(isa.DataBase)
	lib.RearmPage(vpn, guest.NoTID)

	_, fault := h.Load(1, isa.DataBase+0x123, 8, true)
	if fault == nil || !fault.Aikido {
		t.Fatal("expected aikido fault")
	}
	if fault.FakeAddr != readPage {
		t.Errorf("read fault delivered at %#x, want read page %#x", fault.FakeAddr, readPage)
	}
	if got, ours := lib.FaultInfo(fault); !ours || got != isa.DataBase+0x123 {
		t.Errorf("FaultInfo = %#x, %v, want %#x, true", got, ours, isa.DataBase+0x123)
	}

	// Write faults deliver at the write page.
	fault = h.Store(1, isa.DataBase+0x200, 8, 9, true)
	if fault == nil || fault.FakeAddr != writePage {
		t.Errorf("write fault delivered at %#x, want %#x", fault.FakeAddr, writePage)
	}
	// A genuine guest fault is NOT an Aikido fault.
	_, gf := h.Load(1, 0xdead0000, 8, true)
	if _, ours := lib.FaultInfo(gf); ours {
		t.Error("guest fault classified as Aikido")
	}
}

func TestSplitAccessAcrossPages(t *testing.T) {
	_, h := fixture(t)
	// DataBase region is 2 pages; write 8 bytes straddling the boundary.
	addr := isa.DataBase + vm.PageSize - 4
	if fault := h.Store(1, addr, 8, 0x1122334455667788, true); fault != nil {
		t.Fatal(fault)
	}
	v, fault := h.Load(1, addr, 8, true)
	if fault != nil {
		t.Fatal(fault)
	}
	if v != 0x1122334455667788 {
		t.Errorf("split access = %#x", v)
	}
	// Protecting only the second page makes the split store fault and
	// leave the first page unmodified (no partial side effects).
	h.Lib().RearmPage(vm.PageNum(isa.DataBase)+1, guest.NoTID)
	before, _ := h.Load(1, isa.DataBase+vm.PageSize-8, 8, true)
	if fault := h.Store(1, addr, 8, 0xffff, true); fault == nil {
		t.Fatal("split store to protected second page succeeded")
	}
	after, _ := h.Load(1, isa.DataBase+vm.PageSize-8, 8, true)
	if before != after {
		t.Error("split store had partial side effects")
	}
}

// TestShadowAliasUnaffected: protections are keyed by virtual page, so
// protecting a page leaves an alias of its frames (a mirror page)
// readable.
func TestShadowAliasUnaffected(t *testing.T) {
	p, h := fixture(t)
	lib := h.Lib()

	data := p.FindVMA(isa.DataBase)
	const aliasBase = 0x7100_0000_0000
	p.MapAlias(data, aliasBase, pagetable.ProtRW, guest.VMAMirror, "alias")

	lib.RearmPage(vm.PageNum(isa.DataBase), guest.NoTID)
	if _, fault := h.Load(1, aliasBase, 8, true); fault != nil {
		t.Fatalf("alias faults: %v", fault)
	}
}

func TestContextSwitchTracking(t *testing.T) {
	_, h := fixture(t)
	h.ContextSwitch()
	if h.Stats.ContextSwitches != 1 {
		t.Errorf("context switch not counted: stats=%+v", h.Stats)
	}
}

func TestHypercallCounting(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	lib.RearmPage(1, guest.NoTID)
	lib.UnprotectForThread(1, 1)
	lib.ClearRange(1, 1)
	if h.Stats.Hypercalls != 3 {
		t.Errorf("Hypercalls = %d, want 3", h.Stats.Hypercalls)
	}
}

func TestClearPageRestoresFreeAccess(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)
	lib.RearmPage(vpn, guest.NoTID)
	lib.ClearRange(vpn, 1)
	if _, fault := h.Load(7, isa.DataBase, 8, true); fault != nil {
		t.Fatalf("cleared page still faults: %v", fault)
	}
}

func TestProtectionChangeInvalidatesWarmShadow(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)
	// Warm thread 1's shadow entry with full access.
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatal(fault)
	}
	// Now protect: the warm entry must not let thread 1 through.
	lib.RearmPage(vpn, guest.NoTID)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("stale shadow entry bypassed new protection")
	}
}
