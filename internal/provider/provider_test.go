package provider

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// fixtures builds a fresh process and one provider of each kind over it.
func fixture(t *testing.T, kind Kind) (*guest.Process, Interface, *stats.Clock) {
	t.Helper()
	b := isa.NewBuilder("provtest")
	b.GlobalArray(1024)
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	clock := &stats.Clock{}
	switch kind {
	case DOS:
		return p, NewDOS(p, clock), clock
	case Dthreads:
		return p, NewDthreads(p, clock), clock
	default:
		hv := hypervisor.New(p.M, p.PT, clock)
		return p, NewAikidoVM(p, hv, clock), clock
	}
}

var allKinds = []Kind{AikidoVM, DOS, Dthreads}

// TestPerThreadIsolation checks the core contract on every provider:
// protect-all, unprotect-for-one, and fault classification with the true
// faulting address.
func TestPerThreadIsolation(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			vpn := vm.PageNum(isa.DataBase)
			target := isa.DataBase + 24

			prov.ProtectPage(vpn)
			_, fault := prov.Load(1, target, 8, true)
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
			if _, fault := prov.Load(1, target, 8, true); fault != nil {
				t.Fatalf("thread 1 still faults: %v", fault)
			}
			if _, fault := prov.Load(2, target, 8, true); fault == nil {
				t.Fatal("thread 2 not isolated")
			}

			// Global reprotect clears the override.
			prov.ProtectPage(vpn)
			if _, fault := prov.Load(1, target, 8, true); fault == nil {
				t.Fatal("global protect did not clear thread 1's override")
			}
		})
	}
}

// TestFutureThreadsInherit checks that a thread created after a protection
// was installed observes it (a protection row's default semantics).
func TestFutureThreadsInherit(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			vpn := vm.PageNum(isa.DataBase)
			prov.ProtectRange(vpn, 1)
			if _, fault := prov.Load(42, isa.DataBase, 8, true); fault == nil {
				t.Fatal("future thread 42 not protected")
			}
		})
	}
}

// TestGenuineFaultNotOurs: faults on unmapped memory must never be
// classified as provider faults.
func TestGenuineFaultNotOurs(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			_, fault := prov.Load(1, 0xdead_0000_0000, 8, true)
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
// resolved by the provider (emulation / ownership check / shim), not
// surfaced as faults.
func TestKernelAccessNeverFaults(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, clock := fixture(t, kind)
			vpn := vm.PageNum(isa.DataBase)
			prov.ProtectPage(vpn)
			pre := clock.Cycles()
			if _, fault := prov.Load(1, isa.DataBase, 8, false); fault != nil {
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
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			vpn := vm.PageNum(isa.DataBase)
			prov.ProtectRange(vpn, 2)
			prov.ClearRange(vpn, 2)
			if _, fault := prov.Load(7, isa.DataBase, 8, true); fault != nil {
				t.Fatalf("cleared page still faults: %v", fault)
			}
		})
	}
}

// TestWriteVisibleAcrossThreads: stores through one thread's view are
// visible to others (all providers share one physical memory).
func TestWriteVisibleAcrossThreads(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			if fault := prov.Store(1, isa.DataBase+8, 8, 0x1234, true); fault != nil {
				t.Fatalf("store faulted: %v", fault)
			}
			v, fault := prov.Load(2, isa.DataBase+8, 8, true)
			if fault != nil {
				t.Fatalf("load faulted: %v", fault)
			}
			if v != 0x1234 {
				t.Errorf("read %#x, want 0x1234", v)
			}
		})
	}
}

// TestTransparencyMatrix pins §7.1's deployment trade-offs: only the
// hypervisor gets both an unmodified OS and an unmodified toolchain.
func TestTransparencyMatrix(t *testing.T) {
	want := map[Kind]Transparency{
		AikidoVM: {UnmodifiedOS: false, UnmodifiedToolchain: true}, // hypercall switch mode
		DOS:      {UnmodifiedOS: false, UnmodifiedToolchain: true},
		Dthreads: {UnmodifiedOS: true, UnmodifiedToolchain: false},
	}
	for _, kind := range allKinds {
		got := kind.Transparency(hypervisor.SwitchHypercall)
		if got.UnmodifiedOS != want[kind].UnmodifiedOS ||
			got.UnmodifiedToolchain != want[kind].UnmodifiedToolchain {
			t.Errorf("%v transparency = %+v, want %+v", kind, got, want[kind])
		}
	}
}

// TestAikidoVMFullTransparencyWithSegTrap: with the FS/GS-trap switch
// interception the hypervisor needs no guest modification at all — the
// paper's headline transparency claim.
func TestAikidoVMFullTransparencyWithSegTrap(t *testing.T) {
	tr := AikidoVM.Transparency(hypervisor.SwitchSegTrap)
	if !tr.UnmodifiedOS || !tr.UnmodifiedToolchain {
		t.Errorf("AikidoVM+SegTrap should be fully transparent, got %+v", tr)
	}
}

// TestCostStructure pins the provider cost ordering the ablation
// experiment reports: protection changes are dearest through the
// hypervisor; thread creation is dearest as fork; a hypervisor context
// switch (VM exit) outprices the dOS root write.
func TestCostStructure(t *testing.T) {
	chargeOf := func(kind Kind, f func(Interface)) uint64 {
		_, prov, clock := fixture(t, kind)
		pre := clock.Cycles()
		f(prov)
		return clock.Cycles() - pre
	}
	protVM := chargeOf(AikidoVM, func(p Interface) { p.ProtectPage(vm.PageNum(isa.DataBase)) })
	protDOS := chargeOf(DOS, func(p Interface) { p.ProtectPage(vm.PageNum(isa.DataBase)) })
	if protVM <= protDOS {
		t.Errorf("hypercall protect (%d) should outprice dOS syscall (%d)", protVM, protDOS)
	}
	swVM := chargeOf(AikidoVM, func(p Interface) { p.ContextSwitch(1, 2) })
	swDOS := chargeOf(DOS, func(p Interface) { p.ContextSwitch(1, 2) })
	swProcs := chargeOf(Dthreads, func(p Interface) { p.ContextSwitch(1, 2) })
	if swVM <= swDOS {
		t.Errorf("VM-exit switch (%d) should outprice dOS root write (%d)", swVM, swDOS)
	}
	if swProcs <= swVM {
		t.Errorf("process switch (%d) should outprice VM-exit switch (%d)", swProcs, swVM)
	}
	forkProcs := chargeOf(Dthreads, func(p Interface) { p.ThreadStarted(2, 1) })
	forkDOS := chargeOf(DOS, func(p Interface) { p.ThreadStarted(2, 1) })
	forkVM := chargeOf(AikidoVM, func(p Interface) { p.ThreadStarted(2, 1) })
	if !(forkProcs > forkDOS && forkDOS > forkVM) {
		t.Errorf("want fork (%d) > table clone (%d) > shadow bookkeeping (%d)",
			forkProcs, forkDOS, forkVM)
	}
}

// TestKindStrings covers the name mappings.
func TestKindStrings(t *testing.T) {
	if AikidoVM.String() != "aikidovm" || DOS.String() != "dos-kernel" ||
		Dthreads.String() != "dthreads-procs" {
		t.Error("kind names changed")
	}
}

// TestSplitPageAccess exercises the page-boundary split in the protEngine
// path (the hypervisor's own splitter is covered in its package).
func TestSplitPageAccess(t *testing.T) {
	for _, kind := range []Kind{DOS, Dthreads} {
		t.Run(kind.String(), func(t *testing.T) {
			_, prov, _ := fixture(t, kind)
			addr := isa.DataBase + vm.PageSize - 4 // straddles page 0/1
			if fault := prov.Store(1, addr, 8, 0x1122334455667788, true); fault != nil {
				t.Fatalf("split store faulted: %v", fault)
			}
			v, fault := prov.Load(1, addr, 8, true)
			if fault != nil {
				t.Fatalf("split load faulted: %v", fault)
			}
			if v != 0x1122334455667788 {
				t.Errorf("split read %#x", v)
			}
			// Protect the second page only: the split access must fault
			// without partial side effects.
			prov.ProtectPage(vm.PageNum(isa.DataBase) + 1)
			if fault := prov.Store(1, addr, 8, 0xffff, true); fault == nil {
				t.Fatal("split store into protected page succeeded")
			}
		})
	}
}
