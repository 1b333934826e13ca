package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// TestProtectionChurnNoAllocs pins the protection table's steady state:
// once a page's rows, thread views and shadow chunks exist, protecting it,
// granting and re-arming it per thread, refilling shadow entries, taking
// an Aikido fault and clearing it again allocate nothing.
func TestProtectionChurnNoAllocs(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		p, h := fixture(t)
		lib := h.Lib()
		readPage, _ := p.Mmap(vm.PageSize, pagetable.ProtWrite|pagetable.ProtUser)
		writePage, _ := p.Mmap(vm.PageSize, pagetable.ProtRO)
		slotPage, _ := p.Mmap(vm.PageSize, pagetable.ProtRW)
		lib.RegisterFaultPages(readPage, writePage, slotPage)
		vpn := vm.PageNum(isa.DataBase)
		round := func() {
			lib.RearmPage(vpn, guest.NoTID)
			lib.UnprotectForThread(1, vpn)
			if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
				t.Fatalf("owner load faults: %v", fault)
			}
			_, fault := h.Load(3, isa.DataBase+8, 8, true)
			if fault == nil {
				t.Fatalf("non-owner load did not fault, want an Aikido fault at %#x", isa.DataBase+8)
			}
			if addr, ours := lib.FaultInfo(fault); !ours || addr != isa.DataBase+8 {
				t.Fatalf("non-owner load: fault %+v, want an Aikido fault at %#x", fault, isa.DataBase+8)
			}
			lib.RearmPage(vpn, 2)
			if _, fault := h.Load(2, isa.DataBase, 8, true); fault != nil {
				t.Fatalf("re-armed owner load faults: %v", fault)
			}
			lib.ClearRange(vpn, 1)
		}
		if n := testing.AllocsPerRun(50, round); n != 0 {
			t.Errorf("protection churn allocates %.1f objects per round, want 0", n)
		}
	})
}
