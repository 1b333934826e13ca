package provider

import (
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Runtime-area layout for AikidoLib's fault-delivery pages (§3.2.5).
const faultPagesBase uint64 = 0x0000_5800_0000_0000

// vmProvider adapts AikidoVM (the hypervisor) to the provider contract.
// This is the paper's own design: protection requests are hypercalls,
// faults are delivered as fake faults at pre-registered addresses, kernel
// accesses to protected pages are emulated by the hypervisor.
type vmProvider struct {
	hv    *hypervisor.Hypervisor
	lib   *hypervisor.Lib
	clock *stats.Clock
	stats Stats
}

// NewAikidoVM wraps hv as a protection provider for p. It performs the
// AikidoLib initialization of §3.2.5: two delivery pages — one mapped
// without read access, one without write access — and the slot where
// AikidoVM records the true fault address, all in runtime VMAs that
// AikidoSD never protects or mirrors.
func NewAikidoVM(p *guest.Process, hv *hypervisor.Hypervisor, clock *stats.Clock) Interface {
	v := &vmProvider{hv: hv, lib: hv.Lib(), clock: clock}
	readFault := p.MapRuntime(faultPagesBase, 1, pagetable.ProtNone, "aikido-fault-r")
	writeFault := p.MapRuntime(faultPagesBase+2*vm.PageSize, 1, pagetable.ProtRO, "aikido-fault-w")
	slot := p.MapRuntime(faultPagesBase+4*vm.PageSize, 1, pagetable.ProtRW, "aikido-slot")
	v.lib.RegisterFaultPages(readFault.Base, writeFault.Base, slot.Base)
	v.clock.Charge(stats.Hypercall)
	return v
}

// Hypervisor exposes the wrapped AikidoVM (tests, stats collection).
func (v *vmProvider) Hypervisor() *hypervisor.Hypervisor { return v.hv }

// Load routes user accesses through the per-thread shadow tables and kernel
// accesses through the §3.2.6 emulation path, charging each emulated kernel
// instruction (a user access emulates none). Under AikidoVM the engine's
// memory is the hypervisor itself, so the kernel bus is this method's
// caller.
func (v *vmProvider) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault) {
	pre := v.hv.Stats.KernelEmulations
	val, fault := v.hv.Load(tid, addr, size, user)
	v.accountKernel(pre)
	return val, fault
}

// Store is the write analogue of Load.
func (v *vmProvider) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault {
	pre := v.hv.Stats.KernelEmulations
	fault := v.hv.Store(tid, addr, size, val, user)
	v.accountKernel(pre)
	return fault
}

// accountKernel charges the guest-kernel emulations performed since pre.
func (v *vmProvider) accountKernel(pre uint64) {
	if d := v.hv.Stats.KernelEmulations - pre; d > 0 {
		v.stats.KernelBypasses += d
		v.clock.Charge(d * stats.KernelEmulation)
	}
}

func (v *vmProvider) ProtectPage(vpn uint64) {
	v.stats.ProtOps++
	v.lib.ProtectPage(vpn)
	v.clock.Charge(stats.Hypercall)
}

func (v *vmProvider) ProtectRange(vpnBase uint64, pages int) {
	v.stats.RangeOps++
	v.lib.ProtectRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall) // batched: one hypercall per segment
}

func (v *vmProvider) ClearPage(vpn uint64) {
	v.stats.ProtOps++
	v.lib.ClearPage(vpn)
	v.clock.Charge(stats.Hypercall)
}

func (v *vmProvider) ClearRange(vpnBase uint64, pages int) {
	v.stats.RangeOps++
	v.lib.ClearRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall)
}

func (v *vmProvider) UnprotectForThread(tid guest.TID, vpn uint64) {
	v.stats.ProtOps++
	v.lib.UnprotectForThread(tid, vpn)
	v.clock.Charge(stats.Hypercall)
}

// RearmPage is the epoch-demotion hypercall: one VM exit rewrites the
// page's protection row (default none, overrides cleared, owner — if any
// — re-granted).
func (v *vmProvider) RearmPage(vpn uint64, owner guest.TID) {
	v.stats.ProtOps++
	v.lib.RearmPage(vpn, owner)
	v.clock.Charge(stats.Hypercall)
}

func (v *vmProvider) RegisterMirrorRange(vpnBase uint64, pages int) {
	v.lib.RegisterMirrorRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall)
}

// FaultInfo implements the guest signal handler's
// aikido_is_aikido_pagefault() check: the fault is ours when it was
// delivered at a registered delivery page; the true address comes from the
// registered slot (§3.2.5).
func (v *vmProvider) FaultInfo(f *hypervisor.Fault) (uint64, bool) {
	if !f.Aikido || !v.lib.IsAikidoFault(f.FakeAddr) {
		return 0, false
	}
	v.stats.Faults++
	return v.lib.FaultAddr(), true
}

func (v *vmProvider) ProtChangeCost() uint64 { return stats.Hypercall }

// ContextSwitch delegates to the hypervisor, which charges the interception
// VM exit and the translation-view switch (§3.2.3).
func (v *vmProvider) ContextSwitch(old, new guest.TID) {
	v.stats.Switches++
	v.hv.ContextSwitch(old, new)
}

// ThreadStarted models the lazy creation of the thread's shadow page table.
// The table itself fills on demand (hidden faults), so only bookkeeping is
// counted here.
func (v *vmProvider) ThreadStarted(tid, creator guest.TID) {
	v.stats.ThreadSetups++
	v.stats.ModeledMemPages += 4 // shadow root + protection-table row pages
}

func (v *vmProvider) ThreadExited(tid guest.TID) {}

func (v *vmProvider) OnSyscall(tid guest.TID, num int64) {}

func (v *vmProvider) Overhead() Stats { return v.stats }
