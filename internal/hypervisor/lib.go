package hypervisor

import (
	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Lib is AikidoLib: the userspace library through which the Aikido runtime
// (DynamoRIO + AikidoSD) issues hypercalls that bypass the guest OS
// (paper §3.1), classifies the faults AikidoVM delivers (§3.2.5), and
// through which the guest kernel reads user memory (§3.2.6). Every
// mutator is one hypercall, counted and charged by hypercall.
type Lib struct {
	h *Hypervisor
}

// Lib returns the userspace hypercall interface of this AikidoVM, with no
// fault-delivery pages registered; NewLib registers them.
func (h *Hypervisor) Lib() *Lib { return &Lib{h: h} }

// Runtime-area layout for AikidoLib's fault-delivery pages (§3.2.5).
const faultPagesBase uint64 = 0x0000_5800_0000_0000

// NewLib performs AikidoLib's initialization for p over h (§3.2.5): two
// delivery pages — one mapped without read access, one without write
// access — and the slot where AikidoVM records the true fault address,
// all in runtime VMAs that AikidoSD never protects or mirrors, registered
// with one hypercall. The library then becomes p's kernel bus (§3.2.6).
func NewLib(p *guest.Process, h *Hypervisor) *Lib {
	l := h.Lib()
	readFault := p.MapRuntime(faultPagesBase, 1, pagetable.ProtNone, "aikido-fault-r")
	writeFault := p.MapRuntime(faultPagesBase+2*vm.PageSize, 1, pagetable.ProtRO, "aikido-fault-w")
	slot := p.MapRuntime(faultPagesBase+4*vm.PageSize, 1, pagetable.ProtRW, "aikido-slot")
	l.RegisterFaultPages(readFault.Base, writeFault.Base, slot.Base)
	p.SetBus(l)
	return l
}

// hypercall counts one AikidoLib hypercall and charges its VM exit, and
// returns the hypervisor that serves it.
func (l *Lib) hypercall() *Hypervisor {
	h := l.h
	h.Stats.Hypercalls++
	h.clock.Charge(stats.Hypercall)
	return h
}

// RegisterFaultPages registers the two special delivery pages allocated by
// the runtime — one mapped without read access, one without write access —
// and the memory slot where AikidoVM records the true faulting address
// (§3.2.5). The pages must be mapped in the guest application's address
// space with protections matching the faults they stand in for.
func (l *Lib) RegisterFaultPages(readFaultPage, writeFaultPage, addrSlot uint64) {
	h := l.hypercall()
	h.faultPageRead = readFaultPage
	h.faultPageWrite = writeFaultPage
	h.faultAddrSlot = addrSlot
}

// setOverride installs tid's exception to vpn's row r in tid's shadow
// cell for vpn.
func (h *Hypervisor) setOverride(tid guest.TID, vpn uint64, r *protRow, prot pagetable.Prot) {
	o := &h.viewFor(tid).shadow.At(vpn).own
	if !o.set {
		r.overrides++
	}
	*o = threadProt{prot: prot, set: true}
}

// dropOverrides removes every thread's exception to vpn's row r from the
// threads' shadow cells, leaving their translations to the invalidation
// that follows. Only a row with exceptions scans the thread views.
func (h *Hypervisor) dropOverrides(vpn uint64, r *protRow) {
	if r.overrides == 0 {
		return
	}
	for _, v := range h.views {
		if v == nil {
			continue
		}
		if e := v.shadow.Get(vpn); e != nil {
			e.own = threadProt{}
		}
	}
	r.overrides = 0
}

// rearmRow is one protection-row update: vpn's default becomes no access
// for every current and future thread, every per-thread exception is
// dropped, and owner — when a real TID — is granted full access.
func (h *Hypervisor) rearmRow(vpn uint64, owner guest.TID) {
	r := h.prot.At(vpn)
	r.def, r.set = pagetable.ProtNone, true
	h.dropOverrides(vpn, r)
	if owner != guest.NoTID {
		h.setOverride(owner, vpn, r, protAll)
	}
	h.invalidate(vpn)
}

// clearRow removes all Aikido protection state from vpn.
func (h *Hypervisor) clearRow(vpn uint64) {
	if r := h.prot.Get(vpn); r != nil {
		h.dropOverrides(vpn, r)
		*r = protRow{}
	}
	h.invalidate(vpn)
}

// SetThreadProt installs a per-thread protection override for one page.
// Other threads (and future threads) are unaffected.
func (l *Lib) SetThreadProt(tid guest.TID, vpn uint64, prot pagetable.Prot) {
	h := l.hypercall()
	r := h.prot.At(vpn)
	if !r.set {
		*r = protRow{def: protAll, set: true}
	}
	h.setOverride(tid, vpn, r, prot)
	h.invalidate(vpn)
}

// RegisterMirrorRange tells AikidoVM that [vpnBase, vpnBase+pages) is a
// mirror alias of application memory: one counted, charged hypercall that
// records nothing. Protections are keyed by virtual page, so they never
// applied to the mirror range. The call stays because its charge, once
// per mirrored segment, is part of every calibrated Aikido cycle count;
// dropping it is a recalibration (ARCHITECTURE.md, "Removed: nested
// paging and the alternative switch interceptions").
func (l *Lib) RegisterMirrorRange(vpnBase uint64, pages int) {
	l.hypercall()
}

// ProtectRange protects [vpnBase, vpnBase+pages) for every current and
// future thread in one batched hypercall — how AikidoSD protects whole
// segments at startup and on mmap/brk ("one batched hypercall per segment").
func (l *Lib) ProtectRange(vpnBase uint64, pages int) {
	h := l.hypercall()
	for i := 0; i < pages; i++ {
		h.rearmRow(vpnBase+uint64(i), guest.NoTID)
	}
}

// RearmPage protects one page in a single hypercall: the default becomes
// no access for every current and future thread, every per-thread
// exception is dropped, and — when owner is a real TID — the owner alone
// is re-granted full access. With guest.NoTID it is how AikidoSD protects
// a page that turns Shared; it is also the epoch-demotion primitive
// (Shared→Private(owner) with an owner, Shared→Unused without): where
// protecting and then unprotecting for the owner would cost two VM exits,
// the protection row is rewritten under one, the way Oreo revokes a whole
// protection domain with a single permission-table update.
func (l *Lib) RearmPage(vpn uint64, owner guest.TID) {
	l.hypercall().rearmRow(vpn, owner)
}

// ClearRange removes all Aikido protection state from [vpnBase,
// vpnBase+pages) in one batched hypercall (segment unmap).
func (l *Lib) ClearRange(vpnBase uint64, pages int) {
	h := l.hypercall()
	for i := 0; i < pages; i++ {
		h.clearRow(vpnBase + uint64(i))
	}
}

// UnprotectForThread removes Aikido restrictions on a page for one thread
// only (the page becomes "private to tid").
func (l *Lib) UnprotectForThread(tid guest.TID, vpn uint64) {
	l.SetThreadProt(tid, vpn, protAll)
}

// UnprotectReprotect is the runtime's own read of a page protected for
// the reading thread, DynamoRIO's code-page reads during block building
// (§3.4): one hypercall unprotects the page and one reprotects it once the
// read is done. Both are counted and charged; protections are left as
// they were.
func (l *Lib) UnprotectReprotect() {
	l.hypercall()
	l.hypercall()
}

// FaultInfo implements the guest signal handler's
// aikido_is_aikido_pagefault() check (§3.2.5): f is AikidoVM's when it was
// delivered at one of the registered delivery pages, and then its true
// address is the one AikidoVM wrote to the registered slot.
func (l *Lib) FaultInfo(f *Fault) (addr uint64, ours bool) {
	h := l.h
	if !f.Aikido || f.FakeAddr == 0 || f.FakeAddr != h.faultPageRead && f.FakeAddr != h.faultPageWrite {
		return 0, false
	}
	pte, ok := h.pt.Lookup(vm.PageNum(h.faultAddrSlot))
	if !ok {
		return 0, true
	}
	return h.m.ReadU(pte.Frame, vm.PageOff(h.faultAddrSlot), 8), true
}

// Load implements guest.Bus: the guest kernel reads user memory through
// AikidoVM, which emulates a read of a page Aikido protects for tid
// (§3.2.6). Only a genuine guest fault comes back.
func (l *Lib) Load(tid guest.TID, addr uint64, size uint8) (uint64, *pagetable.Fault) {
	v, f := l.h.Load(tid, addr, size, false)
	if f != nil {
		return 0, &pagetable.Fault{Addr: f.Addr, Access: f.Access, Unmapped: f.Unmapped}
	}
	return v, nil
}
