package provider

import (
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// protAll is the identity element for protection intersection.
const protAll = pagetable.ProtRead | pagetable.ProtWrite | pagetable.ProtUser

// protRow is the per-page protection state: a default applied to every
// thread without an override — including future threads — plus per-thread
// exceptions. Same semantics as AikidoVM's per-thread protection table, so
// every provider enforces identical policy.
type protRow struct {
	def      pagetable.Prot
	override map[guest.TID]pagetable.Prot
}

// cachedPTE is one per-thread cached translation (the hardware TLB: under
// dOS and DTHREADS each thread/process has its own page table, so the TLB
// caches per-thread effective permissions natively).
type cachedPTE struct {
	frame vm.FrameID
	prot  pagetable.Prot
}

// protEngine enforces per-thread page protection directly against the guest
// page table — the enforcement core shared by the modified-kernel (dOS) and
// processes-as-threads (DTHREADS) providers. Unlike AikidoVM there is no
// fake-fault indirection: faults carry the true address, as a native SIGSEGV
// would.
type protEngine struct {
	p *guest.Process

	prot     map[uint64]*protRow
	cache    map[guest.TID]map[uint64]cachedPTE
	cachedBy map[uint64]map[guest.TID]struct{}

	// kernelDenied is called when a kernel-mode access hits a page the
	// current thread's protections deny; the provider charges its own
	// resolution cost (ownership check or shim unprotect).
	kernelDenied func(vpn uint64)
	// fill is called on every translation-cache fill (TLB miss walk).
	fill func()

	// fault is the one per-thread-protection fault record, rewritten by
	// every denial (see hypervisor.Fault).
	fault hypervisor.Fault
}

// newProtEngine builds an enforcement engine over the process's page table.
func newProtEngine(p *guest.Process) *protEngine {
	e := &protEngine{
		p:        p,
		prot:     make(map[uint64]*protRow),
		cache:    make(map[guest.TID]map[uint64]cachedPTE),
		cachedBy: make(map[uint64]map[guest.TID]struct{}),
	}
	p.PT.SetListener(e)
	return e
}

// PTEUpdated implements pagetable.Listener: guest page-table writes shoot
// down the cached translations (a normal TLB shootdown; no traps here —
// both kernel-side providers see page-table updates natively).
func (e *protEngine) PTEUpdated(vpn uint64, old, new pagetable.PTE) {
	e.invalidate(vpn)
}

// invalidate drops vpn from every thread's cache.
func (e *protEngine) invalidate(vpn uint64) {
	for tid := range e.cachedBy[vpn] {
		delete(e.cache[tid], vpn)
	}
	delete(e.cachedBy, vpn)
}

// protFor returns the effective extra protection for (tid, vpn).
func (e *protEngine) protFor(tid guest.TID, vpn uint64) pagetable.Prot {
	row, ok := e.prot[vpn]
	if !ok {
		return protAll
	}
	if p, ok := row.override[tid]; ok {
		return p
	}
	return row.def
}

// setThreadProt installs a per-thread override.
func (e *protEngine) setThreadProt(tid guest.TID, vpn uint64, prot pagetable.Prot) {
	row := e.prot[vpn]
	if row == nil {
		row = &protRow{def: protAll, override: make(map[guest.TID]pagetable.Prot)}
		e.prot[vpn] = row
	}
	row.override[tid] = prot
	e.invalidate(vpn)
}

// setDefaultProt installs the default, optionally clearing overrides.
func (e *protEngine) setDefaultProt(vpn uint64, prot pagetable.Prot, clearOverrides bool) {
	row := e.prot[vpn]
	if row == nil {
		row = &protRow{override: make(map[guest.TID]pagetable.Prot)}
		e.prot[vpn] = row
	}
	row.def = prot
	if clearOverrides {
		for k := range row.override {
			delete(row.override, k)
		}
	}
	e.invalidate(vpn)
}

// clear removes all protection state from vpn.
func (e *protEngine) clear(vpn uint64) {
	delete(e.prot, vpn)
	e.invalidate(vpn)
}

// translate resolves one in-page access. Kernel accesses (user=false)
// bypass the per-thread protection via the provider's kernelDenied hook.
func (e *protEngine) translate(tid guest.TID, addr uint64, a pagetable.Access, user bool) (vm.FrameID, uint64, *hypervisor.Fault) {
	vpn := vm.PageNum(addr)
	if user {
		if pte, ok := e.cache[tid][vpn]; ok && pte.prot.Allows(a, true) {
			return pte.frame, vm.PageOff(addr), nil
		}
	}
	gpte, gfault := e.p.PT.Walk(addr, a, user)
	if gfault != nil {
		return vm.NoFrame, 0, &hypervisor.Fault{Addr: addr, Access: a, Unmapped: gfault.Unmapped}
	}
	ap := e.protFor(tid, vpn)
	if !user {
		if !ap.Allows(a, false) && e.kernelDenied != nil {
			e.kernelDenied(vpn)
		}
		return gpte.Frame, vm.PageOff(addr), nil
	}
	eff := gpte.Prot & ap
	if !eff.Allows(a, true) {
		// Per-thread protection denial: delivered as a plain SIGSEGV
		// carrying the true faulting address (no fake-fault indirection).
		e.fault = hypervisor.Fault{Addr: addr, Access: a, Aikido: true}
		return vm.NoFrame, 0, &e.fault
	}
	ct := e.cache[tid]
	if ct == nil {
		ct = make(map[uint64]cachedPTE)
		e.cache[tid] = ct
	}
	ct[vpn] = cachedPTE{frame: gpte.Frame, prot: eff}
	cb := e.cachedBy[vpn]
	if cb == nil {
		cb = make(map[guest.TID]struct{})
		e.cachedBy[vpn] = cb
	}
	cb[tid] = struct{}{}
	if e.fill != nil {
		e.fill()
	}
	return gpte.Frame, vm.PageOff(addr), nil
}

// access performs a sized load/store through translate, splitting accesses
// that cross a page boundary (no partial side effects on faults).
func (e *protEngine) access(tid guest.TID, addr uint64, size uint8, a pagetable.Access, val uint64, user bool) (uint64, *hypervisor.Fault) {
	m := e.p.M
	first := vm.PageSize - vm.PageOff(addr)
	if uint64(size) <= first {
		frame, off, fault := e.translate(tid, addr, a, user)
		if fault != nil {
			return 0, fault
		}
		if a == pagetable.AccessWrite {
			m.WriteU(frame, off, size, val)
			return 0, nil
		}
		return m.ReadU(frame, off, size), nil
	}
	f1, o1, fault := e.translate(tid, addr, a, user)
	if fault != nil {
		return 0, fault
	}
	f2, o2, fault := e.translate(tid, addr+first, a, user)
	if fault != nil {
		return 0, fault
	}
	n1 := uint8(first)
	n2 := size - n1
	if a == pagetable.AccessWrite {
		m.WriteU(f1, o1, n1, val)
		m.WriteU(f2, o2, n2, val>>(8*n1))
		return 0, nil
	}
	lo := m.ReadU(f1, o1, n1)
	hi := m.ReadU(f2, o2, n2)
	return lo | hi<<(8*n1), nil
}
