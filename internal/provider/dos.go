package provider

import (
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
	"repro/internal/stats"
)

// dosProvider is the modified-kernel baseline (paper §7.1, ref [3]): the
// dOS project implements per-thread page tables "through extensive
// modifications to the 2.6.24 Linux kernel". Protection changes are plain
// syscalls into the patched kernel; the kernel consults its own ownership
// table when it dereferences user pointers (no emulation); context switches
// swap the thread's private page table with an ordinary root write. Nothing
// is transparent about it — the guest kernel must be patched — which is
// exactly the trade the paper's hypervisor exists to avoid.
type dosProvider struct {
	eng   *protEngine
	clock *stats.Clock
	stats Stats
}

// NewDOS builds the modified-kernel provider for p.
func NewDOS(p *guest.Process, clock *stats.Clock) Interface {
	d := &dosProvider{clock: clock}
	d.eng = newProtEngine(p)
	d.eng.kernelDenied = func(vpn uint64) {
		// The patched kernel checks its ownership table and proceeds —
		// cheap, compared with AikidoVM's instruction emulation.
		d.stats.KernelBypasses++
		d.clock.Charge(stats.KernelCheck)
	}
	d.eng.fill = func() { d.clock.Charge(stats.ShadowFill) }
	return d
}

func (d *dosProvider) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault) {
	return d.eng.access(tid, addr, size, pagetable.AccessRead, 0, user)
}

func (d *dosProvider) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault {
	_, fault := d.eng.access(tid, addr, size, pagetable.AccessWrite, val, user)
	return fault
}

func (d *dosProvider) ProtectPage(vpn uint64) {
	d.stats.ProtOps++
	d.eng.setDefaultProt(vpn, pagetable.ProtNone, true)
	d.clock.Charge(stats.Syscall)
}

func (d *dosProvider) ProtectRange(vpnBase uint64, pages int) {
	d.stats.RangeOps++
	for i := 0; i < pages; i++ {
		d.eng.setDefaultProt(vpnBase+uint64(i), pagetable.ProtNone, true)
	}
	d.clock.Charge(stats.Syscall) // ranged syscall, one kernel entry
}

func (d *dosProvider) ClearPage(vpn uint64) {
	d.stats.ProtOps++
	d.eng.clear(vpn)
	d.clock.Charge(stats.Syscall)
}

func (d *dosProvider) ClearRange(vpnBase uint64, pages int) {
	d.stats.RangeOps++
	for i := 0; i < pages; i++ {
		d.eng.clear(vpnBase + uint64(i))
	}
	d.clock.Charge(stats.Syscall)
}

func (d *dosProvider) UnprotectForThread(tid guest.TID, vpn uint64) {
	d.stats.ProtOps++
	d.eng.setThreadProt(tid, vpn, protAll)
	d.clock.Charge(stats.Syscall)
}

// RearmPage is one syscall into the patched kernel: the ownership-table
// row is rewritten (protected for all, owner re-granted) atomically.
func (d *dosProvider) RearmPage(vpn uint64, owner guest.TID) {
	d.stats.ProtOps++
	d.eng.setDefaultProt(vpn, pagetable.ProtNone, true)
	if owner != guest.NoTID {
		d.eng.setThreadProt(owner, vpn, protAll)
	}
	d.clock.Charge(stats.Syscall)
}

// RegisterMirrorRange is a no-op: in-kernel protections key on virtual
// pages, so mirror aliases are naturally exempt.
func (d *dosProvider) RegisterMirrorRange(vpnBase uint64, pages int) {}

// FaultInfo: the patched kernel delivers a real SIGSEGV whose siginfo
// carries the true faulting address; the handler recognizes provider faults
// by the Aikido classification the kernel attached.
func (d *dosProvider) FaultInfo(f *hypervisor.Fault) (uint64, bool) {
	if !f.Aikido {
		return 0, false
	}
	d.stats.Faults++
	return f.Addr, true
}

func (d *dosProvider) ProtChangeCost() uint64 { return stats.Syscall }

// ContextSwitch swaps the thread's private page table: a root write inside
// the switch the kernel was doing anyway — no VM exit.
func (d *dosProvider) ContextSwitch(old, new guest.TID) {
	d.stats.Switches++
	d.clock.Charge(stats.ShadowRootSwitch)
}

// ThreadStarted clones the process page table for the new thread.
func (d *dosProvider) ThreadStarted(tid, creator guest.TID) {
	d.stats.ThreadSetups++
	d.stats.ModeledMemPages += 8 // cloned table pages
	d.clock.Charge(stats.ThreadTableSetup)
}

func (d *dosProvider) ThreadExited(tid guest.TID) {}

func (d *dosProvider) OnSyscall(tid guest.TID, num int64) {}

func (d *dosProvider) Overhead() Stats { return d.stats }
