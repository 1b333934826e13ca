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

// AikidoVM is the provider over the hypervisor, the paper's own design:
// protection requests are hypercalls, faults are delivered as fake faults
// at pre-registered addresses, and kernel accesses to protected pages are
// emulated by the hypervisor.
type AikidoVM struct {
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
func NewAikidoVM(p *guest.Process, hv *hypervisor.Hypervisor, clock *stats.Clock) *AikidoVM {
	v := &AikidoVM{hv: hv, lib: hv.Lib(), clock: clock}
	readFault := p.MapRuntime(faultPagesBase, 1, pagetable.ProtNone, "aikido-fault-r")
	writeFault := p.MapRuntime(faultPagesBase+2*vm.PageSize, 1, pagetable.ProtRO, "aikido-fault-w")
	slot := p.MapRuntime(faultPagesBase+4*vm.PageSize, 1, pagetable.ProtRW, "aikido-slot")
	v.lib.RegisterFaultPages(readFault.Base, writeFault.Base, slot.Base)
	v.clock.Charge(stats.Hypercall)
	return v
}

// Load routes kernel accesses through the §3.2.6 emulation path, charging
// each emulated kernel instruction, and user accesses through the
// per-thread shadow tables (a user access emulates none). The engine's
// memory is the hypervisor itself, so the kernel bus is this method's
// caller.
func (v *AikidoVM) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault) {
	pre := v.hv.Stats.KernelEmulations
	val, fault := v.hv.Load(tid, addr, size, user)
	if d := v.hv.Stats.KernelEmulations - pre; d > 0 {
		v.stats.KernelBypasses += d
		v.clock.Charge(d * stats.KernelEmulation)
	}
	return val, fault
}

// ProtectPage denies one page to every current and future thread and
// drops its per-thread grants, with one hypercall.
func (v *AikidoVM) ProtectPage(vpn uint64) {
	v.stats.ProtOps++
	v.lib.ProtectPage(vpn)
	v.clock.Charge(stats.Hypercall)
}

// ProtectRange protects [vpnBase, vpnBase+pages) for every thread with
// one batched hypercall.
func (v *AikidoVM) ProtectRange(vpnBase uint64, pages int) {
	v.stats.RangeOps++
	v.lib.ProtectRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall)
}

// ClearPage removes all protection state from one page, with one
// hypercall.
func (v *AikidoVM) ClearPage(vpn uint64) {
	v.stats.ProtOps++
	v.lib.ClearPage(vpn)
	v.clock.Charge(stats.Hypercall)
}

// ClearRange removes all protection state from [vpnBase, vpnBase+pages)
// with one batched hypercall (segment unmap).
func (v *AikidoVM) ClearRange(vpnBase uint64, pages int) {
	v.stats.RangeOps++
	v.lib.ClearRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall)
}

// UnprotectForThread grants tid alone full access to one page, with one
// hypercall.
func (v *AikidoVM) UnprotectForThread(tid guest.TID, vpn uint64) {
	v.stats.ProtOps++
	v.lib.UnprotectForThread(tid, vpn)
	v.clock.Charge(stats.Hypercall)
}

// RearmPage is the epoch-demotion hypercall: one VM exit rewrites the
// page's protection row (default none, overrides cleared, owner — if any
// — re-granted).
func (v *AikidoVM) RearmPage(vpn uint64, owner guest.TID) {
	v.stats.ProtOps++
	v.lib.RearmPage(vpn, owner)
	v.clock.Charge(stats.Hypercall)
}

// RegisterMirrorRange tells AikidoVM that [vpnBase, vpnBase+pages) is a
// mirror alias of application memory, with one hypercall.
func (v *AikidoVM) RegisterMirrorRange(vpnBase uint64, pages int) {
	v.lib.RegisterMirrorRange(vpnBase, pages)
	v.clock.Charge(stats.Hypercall)
}

// FaultInfo implements the guest signal handler's
// aikido_is_aikido_pagefault() check: the fault is ours when it was
// delivered at a registered delivery page; the true address comes from the
// registered slot (§3.2.5).
func (v *AikidoVM) FaultInfo(f *hypervisor.Fault) (uint64, bool) {
	if !f.Aikido || !v.lib.IsAikidoFault(f.FakeAddr) {
		return 0, false
	}
	v.stats.Faults++
	return v.lib.FaultAddr(), true
}

// ContextSwitch delegates to the hypervisor, which charges the interception
// VM exit and the translation-view switch (§3.2.3).
func (v *AikidoVM) ContextSwitch(old, new guest.TID) {
	v.stats.Switches++
	v.hv.ContextSwitch(old, new)
}

// ThreadStarted models the lazy creation of the thread's shadow page table.
// The table itself fills on demand (hidden faults), so only bookkeeping is
// counted here.
func (v *AikidoVM) ThreadStarted(tid, creator guest.TID) {
	v.stats.ThreadSetups++
	v.stats.ModeledMemPages += 4 // shadow root + protection-table row pages
}

// Overhead returns the provider's event counts so far.
func (v *AikidoVM) Overhead() Stats { return v.stats }
