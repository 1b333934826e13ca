package provider

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// pagings are the two hypervisor paging modes every test runs under, with
// their subtest names.
var pagings = []struct {
	name   string
	paging hypervisor.PagingMode
}{
	{"aikidovm", hypervisor.ShadowPaging},
	{"aikidovm-nested", hypervisor.NestedPaging},
}

// fixture builds a process with dataPages data pages and the provider over
// a fresh hypervisor in the given paging mode. User accesses go to the
// hypervisor, as the engine's do.
func fixture(t *testing.T, paging hypervisor.PagingMode, dataPages int) (*hypervisor.Hypervisor, *AikidoVM, *stats.Clock) {
	t.Helper()
	b := isa.NewBuilder("provtest")
	b.GlobalArray(dataPages * vm.PageSize / 8)
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	clock := &stats.Clock{}
	var hv *hypervisor.Hypervisor
	if paging == hypervisor.NestedPaging {
		hv = hypervisor.NewNested(p.M, p.PT, clock)
	} else {
		hv = hypervisor.New(p.M, p.PT, clock)
	}
	return hv, NewAikidoVM(p, hv, clock), clock
}

// TestPerThreadIsolation checks the core contract under both paging
// modes: protect-all, unprotect-for-one, and fault classification with
// the true faulting address.
func TestPerThreadIsolation(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			hv, prov, _ := fixture(t, pg.paging, 2)
			vpn := vm.PageNum(isa.DataBase)
			target := isa.DataBase + 24

			prov.ProtectPage(vpn)
			_, fault := hv.Load(1, target, 8, true)
			if fault == nil {
				t.Fatal("protected page readable")
			}
			addr, ours := prov.FaultInfo(fault)
			if !ours {
				t.Fatal("provider fault not classified as ours")
			}
			if addr != target {
				t.Fatalf("true fault address = %#x, want %#x", addr, target)
			}

			prov.UnprotectForThread(1, vpn)
			if _, fault := hv.Load(1, target, 8, true); fault != nil {
				t.Fatalf("thread 1 still faults: %v", fault)
			}
			if _, fault := hv.Load(2, target, 8, true); fault == nil {
				t.Fatal("thread 2 not isolated")
			}

			// Global reprotect clears the override.
			prov.ProtectPage(vpn)
			if _, fault := hv.Load(1, target, 8, true); fault == nil {
				t.Fatal("global protect did not clear thread 1's override")
			}
		})
	}
}

// TestFutureThreadsInherit checks that a thread created after a protection
// was installed observes it (a protection row's default semantics).
func TestFutureThreadsInherit(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			hv, prov, _ := fixture(t, pg.paging, 2)
			prov.ProtectRange(vm.PageNum(isa.DataBase), 1)
			if _, fault := hv.Load(42, isa.DataBase, 8, true); fault == nil {
				t.Fatal("future thread 42 not protected")
			}
		})
	}
}

// TestGenuineFaultNotOurs: faults on unmapped memory must never be
// classified as provider faults.
func TestGenuineFaultNotOurs(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			hv, prov, _ := fixture(t, pg.paging, 2)
			_, fault := hv.Load(1, 0xdead_0000_0000, 8, true)
			if fault == nil {
				t.Fatal("unmapped load succeeded")
			}
			if _, ours := prov.FaultInfo(fault); ours {
				t.Fatal("genuine fault classified as provider fault")
			}
		})
	}
}

// TestKernelAccessNeverFaults: kernel-mode accesses to protected pages are
// emulated by AikidoVM (§3.2.6), not surfaced as faults, and the provider
// counts and charges the emulation.
func TestKernelAccessNeverFaults(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			_, prov, clock := fixture(t, pg.paging, 2)
			prov.ProtectPage(vm.PageNum(isa.DataBase))
			pre := clock.Cycles()
			if _, fault := KernelBus(prov).Load(1, isa.DataBase, 8, false); fault != nil {
				t.Fatalf("kernel access faulted: %v", fault)
			}
			if prov.Overhead().KernelBypasses == 0 {
				t.Error("kernel bypass not counted")
			}
			if clock.Cycles() == pre {
				t.Error("kernel bypass should cost cycles")
			}
		})
	}
}

// TestClearRangeRestoresAccess covers segment unmap cleanup.
func TestClearRangeRestoresAccess(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			hv, prov, _ := fixture(t, pg.paging, 2)
			vpn := vm.PageNum(isa.DataBase)
			prov.ProtectRange(vpn, 2)
			prov.ClearRange(vpn, 2)
			if _, fault := hv.Load(7, isa.DataBase, 8, true); fault != nil {
				t.Fatalf("cleared page still faults: %v", fault)
			}
		})
	}
}

// TestWriteVisibleAcrossThreads: stores through one thread's view are
// visible to others (every view maps the same physical memory).
func TestWriteVisibleAcrossThreads(t *testing.T) {
	for _, pg := range pagings {
		t.Run(pg.name, func(t *testing.T) {
			hv, _, _ := fixture(t, pg.paging, 2)
			if fault := hv.Store(1, isa.DataBase+8, 8, 0x1234, true); fault != nil {
				t.Fatalf("store faulted: %v", fault)
			}
			v, fault := hv.Load(2, isa.DataBase+8, 8, true)
			if fault != nil {
				t.Fatalf("load faulted: %v", fault)
			}
			if v != 0x1234 {
				t.Errorf("read %#x, want 0x1234", v)
			}
		})
	}
}
