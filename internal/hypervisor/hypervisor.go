// Package hypervisor implements AikidoVM (paper §3.2): a hypervisor that
// grants guest userspace per-thread page protection by maintaining one
// shadow page table per guest thread instead of one per guest page table.
//
// Model correspondence:
//
//   - Shadow page tables are populated lazily on first access ("hidden
//     faults" in shadow-paging terminology) and invalidated when either the
//     guest page table or an Aikido protection entry changes. Reverse maps
//     from virtual page number to the threads caching it implement the
//     paper's "two reverse mapping tables" (§3.2.4).
//   - Guest page-table updates arrive through the pagetable.Listener
//     interface, standing in for the write-protection traps a real
//     hypervisor places on guest page-table pages (§3.2.2).
//   - Context switches between threads of one guest process arrive through
//     ContextSwitch, standing in for the hypercall the paper's prototype
//     adds to the guest kernel's context-switch procedure (§3.2.3).
//   - Aikido-induced faults are delivered to the guest as a *fake* fault at
//     an address pre-registered by AikidoLib, with the true faulting
//     address written to a registered guest memory slot (§3.2.5).
//   - Guest kernel accesses to Aikido-protected pages are emulated and the
//     page temporarily unprotected with the USER bit cleared, restored on
//     the next userspace fault (§3.2.6).
package hypervisor

import (
	"fmt"
	"math/bits"

	"repro/internal/guest"
	"repro/internal/paged"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// protAll is the identity element for protection intersection: an absent
// per-thread protection entry imposes no additional restriction.
const protAll = pagetable.ProtRead | pagetable.ProtWrite | pagetable.ProtUser

// protRow is one row of the per-thread protection table, keyed by vpn.
// Rows are pointer-free: per-thread exceptions live in the threads' shadow
// cells, and the row only counts them, so the table's chunks are noscan.
type protRow struct {
	// def is the protection applied to threads with no override — and,
	// crucially, to threads created after the row was installed.
	def pagetable.Prot
	// set marks an installed row; an unset row imposes no restriction.
	set bool
	// overrides counts the threads whose view holds an exception to def
	// for this vpn, so rows without exceptions never scan the views. 16
	// bits suffice: every guest thread maps its own 64 KiB stack, so
	// 65536 threads would need 4 GiB of guest stack.
	overrides uint16
}

// threadProt is one thread's exception to a protection row's default.
type threadProt struct {
	prot pagetable.Prot
	set  bool
}

// shadowPTE is one cell of a thread's shadow page table: a cached
// translation (frame and prot) and the thread's exception to the page's
// protection row (own). An empty translation has frame vm.NoFrame and a
// zero prot, which allows nothing; fills always carry a real guest frame
// and a protection that allows the filling access. Fills and
// invalidations rewrite the translation only, and the exception fits in
// the translation's padding, so a cell stays 16 bytes.
type shadowPTE struct {
	frame vm.FrameID
	prot  pagetable.Prot // effective = guest prot ∩ Aikido prot
	own   threadProt
}

// view is one thread's translation state.
type view struct {
	// shadow is the thread's shadow page table, keyed by vpn and
	// populated lazily. Its cells also hold the thread's exceptions to
	// the protection table, so a thread has one table, not two.
	shadow paged.Table[shadowPTE]
	// tlb is the host's translation cache in front of shadow: a copy of
	// recently used shadow entries, which Load and Store probe without a
	// call. Every entry mirrors a present shadow entry and is dropped
	// with it, so a hit is exactly a shadow hit. It is pointer-free and
	// comes after the table's pointers, so the garbage collector's scan
	// of a view stops before it.
	tlb vm.TLB
}

// Stats are AikidoVM's event counters.
type Stats struct {
	// ShadowFills counts lazy shadow-page-table population events
	// (hidden faults in real shadow paging).
	ShadowFills uint64
	// ShadowInvalidations counts shadow PTEs dropped due to guest
	// page-table updates or protection changes.
	ShadowInvalidations uint64
	// TLBHits counts user translations served from a thread's shadow
	// table, whether Load and Store found them in the view's host TLB or
	// Translate in the shadow table behind it.
	TLBHits uint64
	// AikidoFaults counts faults caused by Aikido protections and
	// delivered to guest userspace (the "Segmentation Faults" column of
	// Table 2).
	AikidoFaults uint64
	// GuestFaults counts ordinary faults delivered to the guest OS.
	GuestFaults uint64
	// KernelEmulations counts guest-kernel instructions emulated because
	// they touched an Aikido-protected page (§3.2.6).
	KernelEmulations uint64
	// TempUnprotects counts pages temporarily unprotected for the guest
	// kernel; Reprotects counts the restoration events.
	TempUnprotects uint64
	Reprotects     uint64
	// Hypercalls counts AikidoLib hypercalls.
	Hypercalls uint64
	// ContextSwitches counts shadow-table switches.
	ContextSwitches uint64
	// GuestPTUpdates counts trapped guest page-table writes.
	GuestPTUpdates uint64
}

// Hypervisor is the AikidoVM instance for one guest process.
type Hypervisor struct {
	m  *vm.Machine
	pt *pagetable.Table

	// views holds each thread's shadow table, whose cells carry its
	// protection exceptions, indexed by the (small) TID.
	views []*view
	// cachedBy is the reverse map: vpn → the threads whose shadow table
	// caches a translation for it, as a mask of TID mod 64.
	cachedBy paged.Table[uint64]
	// prot is the per-thread protection table, one row per vpn.
	prot paged.Table[protRow]
	// tempUnprot holds pages temporarily unprotected for the guest
	// kernel (USER bit cleared); restored on the next userspace fault.
	tempUnprot map[uint64]struct{}

	// fault delivery registration (AikidoLib, §3.2.5)
	faultPageRead  uint64 // page mapped without read access
	faultPageWrite uint64 // page mapped without write access
	faultAddrSlot  uint64 // guest address where the true fault address is stored

	// clock accounts hypervisor-internal events (VM exits, walks, view
	// switches, hypercalls and kernel emulations).
	clock *stats.Clock

	// fault is the one Aikido fault record, rewritten by every delivery.
	fault Fault

	Stats Stats
}

// New creates an AikidoVM over the guest's page table, charging its
// internal events to clock, and registers for the page table's update
// traps.
func New(m *vm.Machine, pt *pagetable.Table, clock *stats.Clock) *Hypervisor {
	h := &Hypervisor{
		m:          m,
		pt:         pt,
		tempUnprot: make(map[uint64]struct{}),
		clock:      clock,
	}
	pt.SetListener(h)
	return h
}

// PTEUpdated implements pagetable.Listener: a trapped guest page-table
// write. The hypervisor write-protects guest page-table pages (§3.2.2), so
// each write costs a VM exit plus emulation, and the hypervisor applies
// the change to every thread's shadow table (here: invalidates the cached
// translations, which repopulate with the per-thread protection applied,
// §3.2.4).
func (h *Hypervisor) PTEUpdated(vpn uint64, old, new pagetable.PTE) {
	h.Stats.GuestPTUpdates++
	h.clock.Charge(stats.PTUpdateTrap)
	h.invalidate(vpn)
}

// viewOf returns tid's view, or nil if it has none yet.
func (h *Hypervisor) viewOf(tid guest.TID) *view {
	if uint32(tid) < uint32(len(h.views)) {
		return h.views[tid]
	}
	return nil
}

// viewFor returns tid's view, creating it on first use.
func (h *Hypervisor) viewFor(tid guest.TID) *view {
	if v := h.viewOf(tid); v != nil {
		return v
	}
	for int(tid) >= len(h.views) {
		h.views = append(h.views, nil)
	}
	v := new(view)
	h.views[tid] = v
	return v
}

// invalidate drops vpn's translation from every shadow table caching it.
// A mask bit names every thread with that TID mod 64; of those, only the
// translations actually present are dropped and counted. That count is
// exact: a translation is present exactly when its thread filled vpn since
// vpn's last invalidation, which is when the thread's bit was set. Each
// cell keeps its thread's exception: a translation is derived from it,
// not the other way round.
func (h *Hypervisor) invalidate(vpn uint64) {
	m := h.cachedBy.Get(vpn)
	if m == nil || *m == 0 {
		return
	}
	for mask := *m; mask != 0; mask &= mask - 1 {
		for tid := bits.TrailingZeros64(mask); tid < len(h.views); tid += 64 {
			if v := h.views[tid]; v != nil {
				if e := v.shadow.Get(vpn); e != nil && e.frame != vm.NoFrame {
					e.frame, e.prot = vm.NoFrame, 0
					v.tlb.Drop(vpn)
					h.Stats.ShadowInvalidations++
				}
			}
		}
	}
	*m = 0
}

// ContextSwitch implements the guest hook: the guest kernel switched
// threads within the Aikido-enabled process and told AikidoVM through the
// hypercall added to its context-switch procedure (§3.2.3). The switch
// costs that hypercall's VM exit and the swap to the new thread's shadow
// page table root. No state changes: every translation names its thread.
func (h *Hypervisor) ContextSwitch() {
	h.Stats.ContextSwitches++
	h.clock.Charge(stats.ContextSwitch + stats.ShadowRootSwitch)
}

// protForAccess returns the Aikido protection for tid's access to vpn:
// tid's exception to vpn's row when it holds one, else the row's default;
// protAll when unrestricted.
func (h *Hypervisor) protForAccess(tid guest.TID, vpn uint64) pagetable.Prot {
	r := h.prot.Get(vpn)
	if r == nil || !r.set {
		return protAll
	}
	if r.overrides > 0 {
		if v := h.viewOf(tid); v != nil {
			if e := v.shadow.Get(vpn); e != nil && e.own.set {
				return e.own.prot
			}
		}
	}
	return r.def
}

// Fault describes a fault observed by the virtual CPU on a user access.
// An Aikido fault points at a record its hypervisor rewrites on the next
// Aikido fault, so a handler reads it synchronously and keeps no pointer
// to it.
type Fault struct {
	// Addr is the faulting guest virtual address (the *true* address; the
	// fake delivery address is FakeAddr).
	Addr   uint64
	Access pagetable.Access
	// Aikido is true when the fault was caused by an Aikido per-thread
	// protection rather than the guest page table.
	Aikido bool
	// Unmapped is true for guest faults on unmapped pages.
	Unmapped bool
	// FakeAddr is the address at which an Aikido fault is delivered to
	// the guest signal handler (§3.2.5); zero if delivery pages are not
	// registered.
	FakeAddr uint64
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "guest"
	if f.Aikido {
		kind = "aikido"
	}
	return fmt.Sprintf("%s page fault: %s %#x", kind, f.Access, f.Addr)
}

// Translate resolves one page-aligned-or-contained access for thread tid.
// It serves from the thread's shadow table when possible and otherwise
// performs the two-level walk (guest page table + per-thread protection).
//
// user=false models guest-kernel accesses: Aikido protections are handled
// by emulation (§3.2.6), charged per emulated access, and never surface as
// faults; only genuine guest faults are returned.
func (h *Hypervisor) Translate(tid guest.TID, addr uint64, a pagetable.Access, user bool) (vm.FrameID, uint64, *Fault) {
	vpn := vm.PageNum(addr)

	// Fast path: shadow table (hardware TLB analogue). Both user returns
	// refill the host TLB's slot; each fill allows the access it served,
	// so every TLB entry is readable.
	if v := h.viewOf(tid); v != nil && user {
		if e := v.shadow.Get(vpn); e != nil && e.prot.Allows(a, true) {
			h.Stats.TLBHits++
			v.tlb.Fill(vpn, e.frame, e.prot.Allows(pagetable.AccessWrite, true))
			return e.frame, vm.PageOff(addr), nil
		}
		// No entry, or the cached entry denies: fall through to the
		// slow path, which classifies the fault.
	}

	// Guest page-table walk (kernel-mode check first: is the access
	// possible at all from the guest's point of view?).
	gpte, gfault := h.pt.Walk(addr, a, user)
	if gfault != nil {
		if user {
			h.Stats.GuestFaults++
		}
		return vm.NoFrame, 0, &Fault{Addr: addr, Access: a, Unmapped: gfault.Unmapped}
	}

	ap := h.protForAccess(tid, vpn)

	if !user {
		// Guest kernel access. If Aikido protection would deny it,
		// emulate the access and temporarily unprotect the page with
		// the USER bit cleared (§3.2.6).
		if !ap.Allows(a, false) {
			if _, already := h.tempUnprot[vpn]; !already {
				h.tempUnprot[vpn] = struct{}{}
				h.Stats.TempUnprotects++
				// Clearing the USER bit rewrites the shadow PTE, so
				// cached translations for this page must go.
				h.invalidate(vpn)
			}
			h.Stats.KernelEmulations++
			h.clock.Charge(stats.KernelEmulation)
		}
		return gpte.Frame, vm.PageOff(addr), nil
	}

	// Userspace access to a temporarily-unprotected page: restore the
	// original protections on *all* pages the kernel touched, then
	// continue translating (§3.2.6).
	if len(h.tempUnprot) > 0 {
		if _, hit := h.tempUnprot[vpn]; hit {
			h.restoreTempUnprotected()
		}
	}

	eff := gpte.Prot & ap
	if !eff.Allows(a, true) {
		// The guest page table allowed it (walk above passed), so the
		// denial is Aikido's.
		h.Stats.AikidoFaults++
		return vm.NoFrame, 0, h.deliverAikidoFault(addr, a)
	}

	// Populate the thread's shadow page table (a hidden fault) and
	// succeed. The fill writes the translation; the cell's exception
	// stays.
	v := h.viewFor(tid)
	e := v.shadow.At(vpn)
	e.frame, e.prot = gpte.Frame, eff
	v.tlb.Fill(vpn, e.frame, eff.Allows(pagetable.AccessWrite, true))
	*h.cachedBy.At(vpn) |= 1 << (uint32(tid) & 63)
	h.Stats.ShadowFills++
	h.clock.Charge(stats.ShadowFill)
	return gpte.Frame, vm.PageOff(addr), nil
}

// restoreTempUnprotected re-applies Aikido protections to every page the
// guest kernel had temporarily unprotected.
func (h *Hypervisor) restoreTempUnprotected() {
	for vpn := range h.tempUnprot {
		delete(h.tempUnprot, vpn)
		h.Stats.Reprotects++
	}
}

// deliverAikidoFault constructs the fake-fault delivery of §3.2.5: the
// fault is reported at a pre-registered address whose protection matches
// the access kind, and the true faulting address is written to the
// registered guest memory slot. It reuses h.fault rather than allocating:
// the handler consumes a fault before the guest makes its next access.
func (h *Hypervisor) deliverAikidoFault(addr uint64, a pagetable.Access) *Fault {
	f := &h.fault
	*f = Fault{Addr: addr, Access: a, Aikido: true}
	switch a {
	case pagetable.AccessRead:
		f.FakeAddr = h.faultPageRead
	case pagetable.AccessWrite:
		f.FakeAddr = h.faultPageWrite
	}
	if h.faultAddrSlot != 0 {
		// Write the true address into guest memory at the registered
		// slot (direct frame write; the slot lives in an unprotected
		// AikidoLib page).
		if pte, ok := h.pt.Lookup(vm.PageNum(h.faultAddrSlot)); ok {
			h.m.WriteU(pte.Frame, vm.PageOff(h.faultAddrSlot), 8, addr)
		}
	}
	return f
}

// Access performs a user-mode sized load/store through Translate, splitting
// accesses that cross a page boundary. On fault, no partial side effects
// are applied for stores beyond completed pages (like a real CPU, the
// faulting portion re-executes after the fault is handled).
func (h *Hypervisor) Access(tid guest.TID, addr uint64, size uint8, a pagetable.Access, val uint64, user bool) (uint64, *Fault) {
	first := vm.PageSize - vm.PageOff(addr)
	if uint64(size) <= first {
		frame, off, fault := h.Translate(tid, addr, a, user)
		if fault != nil {
			return 0, fault
		}
		if a == pagetable.AccessWrite {
			h.m.WriteU(frame, off, size, val)
			return 0, nil
		}
		return h.m.ReadU(frame, off, size), nil
	}
	// Split access: translate both pages before any side effect.
	f1, o1, fault := h.Translate(tid, addr, a, user)
	if fault != nil {
		return 0, fault
	}
	f2, _, fault := h.Translate(tid, addr+first, a, user)
	if fault != nil {
		return 0, fault
	}
	if a == pagetable.AccessWrite {
		h.m.WriteSplit(f1, f2, o1, size, val)
		return 0, nil
	}
	return h.m.ReadSplit(f1, f2, o1, size), nil
}

// Load is a user/kernel load via the MMU. A user load that hits the
// thread's host TLB reads its frame directly; every other load goes
// through Access.
func (h *Hypervisor) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *Fault) {
	if user {
		if v := h.viewOf(tid); v != nil {
			if frame, _, ok := v.tlb.Lookup(addr, size); ok {
				h.Stats.TLBHits++
				return h.m.ReadWhole(frame, vm.PageOff(addr), size), nil
			}
		}
	}
	return h.Access(tid, addr, size, pagetable.AccessRead, 0, user)
}

// Store is a user/kernel store via the MMU. A user store that hits a
// writable host-TLB entry writes its frame directly, unless the frame has
// never been written: that store goes through Access, where the machine
// gives the frame its own page.
func (h *Hypervisor) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *Fault {
	if user {
		if v := h.viewOf(tid); v != nil {
			if frame, writable, ok := v.tlb.Lookup(addr, size); ok && writable && h.m.WriteWhole(frame, vm.PageOff(addr), size, val) {
				h.Stats.TLBHits++
				return nil
			}
		}
	}
	_, fault := h.Access(tid, addr, size, pagetable.AccessWrite, val, user)
	return fault
}

// TempUnprotectedPages reports how many pages are currently temporarily
// unprotected for the guest kernel (tests).
func (h *Hypervisor) TempUnprotectedPages() int { return len(h.tempUnprot) }
