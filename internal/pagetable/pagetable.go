// Package pagetable implements the guest operating system's page tables:
// virtual page number → physical frame mappings with x86-style protection
// bits (present/readable, writable, user-accessible).
//
// A real hypervisor learns about guest page-table updates by write-protecting
// the pages that hold them and trapping the writes (paper §3.2.2). The
// simulation expresses the same interposition point directly: a Table
// accepts a Listener, and every mutation is reported to it. AikidoVM
// registers itself as the listener and updates its per-thread shadow page
// tables in response, exactly as the paper's hypervisor does on a trapped
// page-table write.
package pagetable

import (
	"fmt"

	"repro/internal/paged"
	"repro/internal/vm"
)

// Prot is a page protection bit set.
type Prot uint8

// Protection bits, mirroring the x86 PTE bits the paper manipulates
// (present ⇒ readable, writable, user-accessible; §3.2.2 and §3.2.6).
const (
	// ProtRead marks the page present and readable.
	ProtRead Prot = 1 << iota
	// ProtWrite marks the page writable.
	ProtWrite
	// ProtUser marks the page accessible from guest userspace. AikidoVM
	// clears this bit when it temporarily unprotects a page for the guest
	// kernel, so the next userspace access still faults (§3.2.6).
	ProtUser

	// ProtNone denies all access.
	ProtNone Prot = 0
	// ProtRW is the common userspace data protection.
	ProtRW = ProtRead | ProtWrite | ProtUser
	// ProtRO is read-only userspace protection.
	ProtRO = ProtRead | ProtUser
)

// Allows reports whether the protection permits the access from userspace
// (user=true) or kernel mode.
func (p Prot) Allows(a Access, user bool) bool {
	if p&ProtRead == 0 {
		return false
	}
	if a == AccessWrite && p&ProtWrite == 0 {
		return false
	}
	if user && p&ProtUser == 0 {
		return false
	}
	return true
}

// String renders the protection like "rwu" / "r--".
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtUser != 0 {
		b[2] = 'u'
	}
	return string(b)
}

// Access is a memory access kind.
type Access uint8

// Access kinds.
const (
	// AccessRead is a data load.
	AccessRead Access = iota
	// AccessWrite is a data store.
	AccessWrite
)

// String returns "read" or "write".
func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// PTE is one page-table entry.
type PTE struct {
	Frame vm.FrameID
	Prot  Prot
}

// Listener observes page-table mutations. In the real system this is the
// hypervisor's write-protection trap on guest page-table pages.
type Listener interface {
	// PTEUpdated is called after the entry for vpn changes. old is the
	// previous entry (zero PTE if the page was unmapped) and new the
	// current one (zero PTE if the page is being unmapped).
	PTEUpdated(vpn uint64, old, new PTE)
}

// Table is one guest page table (one per guest process). Its entries live
// in a paged.Table keyed by vpn: the guest address space is sparse (code,
// data, heap, mmap, and stacks sit at widely separated bases), but each
// populated area is dense, so a walk is a chunk-cache hit and an index, not
// a map probe per page. A PTE with Frame == vm.NoFrame marks an unmapped
// slot: Map rejects NoFrame, so the zero value can never alias a real
// mapping.
type Table struct {
	ptes     paged.Table[PTE]
	listener Listener

	// Updates counts mutations; each one would cost a hypervisor trap in
	// the real system.
	Updates uint64
}

// New returns an empty page table.
func New() *Table { return &Table{} }

// SetListener installs the mutation observer (at most one; the hypervisor).
func (t *Table) SetListener(l Listener) { t.listener = l }

// mapped returns the entry for vpn, or nil when vpn is unmapped.
func (t *Table) mapped(vpn uint64) *PTE {
	if p := t.ptes.Get(vpn); p != nil && p.Frame != vm.NoFrame {
		return p
	}
	return nil
}

// Lookup returns the entry for vpn.
func (t *Table) Lookup(vpn uint64) (PTE, bool) {
	if p := t.mapped(vpn); p != nil {
		return *p, true
	}
	return PTE{}, false
}

// Map installs a mapping for vpn. Remapping an existing vpn is allowed (it
// models mmap(MAP_FIXED) over an existing region).
func (t *Table) Map(vpn uint64, frame vm.FrameID, prot Prot) {
	if frame == vm.NoFrame {
		panic(fmt.Sprintf("pagetable: mapping vpn %#x to the invalid frame", vpn))
	}
	p := t.ptes.At(vpn)
	old := *p
	*p = PTE{Frame: frame, Prot: prot}
	t.update(vpn, old, *p)
}

// Unmap removes the mapping for vpn, returning the old entry.
func (t *Table) Unmap(vpn uint64) (PTE, bool) {
	p := t.mapped(vpn)
	if p == nil {
		return PTE{}, false
	}
	old := *p
	*p = PTE{}
	t.update(vpn, old, PTE{})
	return old, true
}

// SetProt changes the protection of an existing mapping. It reports whether
// the vpn was mapped.
func (t *Table) SetProt(vpn uint64, prot Prot) bool {
	p := t.mapped(vpn)
	if p == nil {
		return false
	}
	old := *p
	p.Prot = prot
	t.update(vpn, old, *p)
	return true
}

// update counts a mutation and reports it to the listener.
func (t *Table) update(vpn uint64, old, new PTE) {
	t.Updates++
	if t.listener != nil {
		t.listener.PTEUpdated(vpn, old, new)
	}
}

// Walk translates a guest virtual address for the given access, returning
// the PTE. A nil *Fault means the access is permitted.
func (t *Table) Walk(addr uint64, a Access, user bool) (PTE, *Fault) {
	p := t.mapped(vm.PageNum(addr))
	if p == nil {
		return PTE{}, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	pte := *p
	if !pte.Prot.Allows(a, user) {
		return PTE{}, &Fault{Addr: addr, Access: a, Prot: pte.Prot}
	}
	return pte, nil
}

// Fault describes a page fault raised during translation.
type Fault struct {
	// Addr is the faulting guest virtual address.
	Addr uint64
	// Access is the attempted access kind.
	Access Access
	// Unmapped is true when no mapping exists at all.
	Unmapped bool
	// Prot is the protection that denied the access (when mapped).
	Prot Prot
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Unmapped {
		return fmt.Sprintf("page fault: %s of unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("page fault: %s of %#x denied by prot %s", f.Access, f.Addr, f.Prot)
}
