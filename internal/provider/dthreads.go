package provider

import (
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
	"repro/internal/stats"
)

// dthreadsProvider is the processes-as-threads baseline (paper §7.1, refs
// [4] Grace and [24] DTHREADS): a custom compiler/runtime converts every
// thread into a process with its own page table, "taking steps to create
// the illusion of a single process and address space". Per-thread
// protection falls out for free — each process mprotects its own mappings —
// but:
//
//   - thread creation becomes fork (expensive, plus copied page tables);
//   - every "thread" switch is a full process switch;
//   - the single-process illusion taxes every syscall (file descriptors
//     created after the fork "will not be visible in the other processes",
//     as §7.1 notes, so the runtime brokers kernel state);
//   - kernel accesses to protected pages fail with EFAULT and the runtime
//     shim must unprotect/reprotect around the syscall.
type dthreadsProvider struct {
	eng   *protEngine
	clock *stats.Clock
	stats Stats
}

// brokeredSyscall is one protection change the runtime brokers to every
// process sharing the region: the mprotect syscall plus half again for
// the broadcast.
const brokeredSyscall = stats.Syscall + stats.Syscall/2

// NewDthreads builds the processes-as-threads provider for p.
func NewDthreads(p *guest.Process, clock *stats.Clock) Interface {
	d := &dthreadsProvider{clock: clock}
	d.eng = newProtEngine(p)
	d.eng.kernelDenied = func(vpn uint64) {
		// EFAULT path: the runtime shim mprotects the buffer's pages
		// around the syscall and restores them afterwards.
		d.stats.KernelBypasses++
		d.clock.Charge(2 * stats.Syscall)
	}
	d.eng.fill = func() { d.clock.Charge(stats.ShadowFill) }
	return d
}

func (d *dthreadsProvider) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault) {
	return d.eng.access(tid, addr, size, pagetable.AccessRead, 0, user)
}

func (d *dthreadsProvider) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault {
	_, fault := d.eng.access(tid, addr, size, pagetable.AccessWrite, val, user)
	return fault
}

func (d *dthreadsProvider) ProtectPage(vpn uint64) {
	// Protecting a page "for every thread" means an mprotect in every
	// process sharing the region; the runtime brokers one syscall per
	// live process. Modeled as a single protection row (the semantics are
	// identical) plus the brokered syscall.
	d.stats.ProtOps++
	d.eng.setDefaultProt(vpn, pagetable.ProtNone, true)
	d.clock.Charge(brokeredSyscall)
}

func (d *dthreadsProvider) ProtectRange(vpnBase uint64, pages int) {
	d.stats.RangeOps++
	for i := 0; i < pages; i++ {
		d.eng.setDefaultProt(vpnBase+uint64(i), pagetable.ProtNone, true)
	}
	d.clock.Charge(brokeredSyscall)
}

func (d *dthreadsProvider) ClearPage(vpn uint64) {
	d.stats.ProtOps++
	d.eng.clear(vpn)
	d.clock.Charge(brokeredSyscall)
}

func (d *dthreadsProvider) ClearRange(vpnBase uint64, pages int) {
	d.stats.RangeOps++
	for i := 0; i < pages; i++ {
		d.eng.clear(vpnBase + uint64(i))
	}
	d.clock.Charge(brokeredSyscall)
}

func (d *dthreadsProvider) UnprotectForThread(tid guest.TID, vpn uint64) {
	// A plain mprotect in the calling process only — the cheap operation
	// this design is built around.
	d.stats.ProtOps++
	d.eng.setThreadProt(tid, vpn, protAll)
	d.clock.Charge(stats.Syscall)
}

// RearmPage re-protects in every process and re-grants the owner with a
// plain mprotect in its process — brokered like ProtectPage, plus the
// owner's own cheap syscall.
func (d *dthreadsProvider) RearmPage(vpn uint64, owner guest.TID) {
	d.stats.ProtOps++
	d.eng.setDefaultProt(vpn, pagetable.ProtNone, true)
	cost := brokeredSyscall
	if owner != guest.NoTID {
		d.eng.setThreadProt(owner, vpn, protAll)
		cost += stats.Syscall
	}
	d.clock.Charge(cost)
}

// RegisterMirrorRange is a no-op: mprotect keys on virtual pages.
func (d *dthreadsProvider) RegisterMirrorRange(vpnBase uint64, pages int) {}

// FaultInfo: a native SIGSEGV with the true address in siginfo.
func (d *dthreadsProvider) FaultInfo(f *hypervisor.Fault) (uint64, bool) {
	if !f.Aikido {
		return 0, false
	}
	d.stats.Faults++
	return f.Addr, true
}

func (d *dthreadsProvider) ProtChangeCost() uint64 { return stats.Syscall }

// ContextSwitch is a full process switch: address-space change, TLB impact.
func (d *dthreadsProvider) ContextSwitch(old, new guest.TID) {
	d.stats.Switches++
	d.clock.Charge(stats.ProcessSwitch)
}

// ThreadStarted forks a new process and copies the address-space metadata.
func (d *dthreadsProvider) ThreadStarted(tid, creator guest.TID) {
	d.stats.ThreadSetups++
	d.stats.ModeledMemPages += 16 // forked page tables + runtime bookkeeping
	d.clock.Charge(stats.Fork)
}

func (d *dthreadsProvider) ThreadExited(tid guest.TID) {}

// OnSyscall charges the single-process-illusion tax: kernel state (fds,
// brk, signal dispositions) is brokered between the processes.
func (d *dthreadsProvider) OnSyscall(tid guest.TID, num int64) {
	d.clock.Charge(stats.Syscall / 2)
}

func (d *dthreadsProvider) Overhead() Stats { return d.stats }
