// Package stm implements a software transactional memory with strong
// atomicity using page protection and a double-mapped heap — the Abadi,
// Harris & Mehrara system the paper contrasts Aikido with in §7.2.
//
// The managed region (the application's data segment, standing in for the
// C# heap) is mapped twice in virtual memory — the second mapping is the
// mirror alias Aikido also uses (§3.3.3). Transactional code accesses data
// through the mirror; as a transaction touches pages, the runtime
// dynamically protects the *primary* mapping (read-set pages read-only,
// write-set pages inaccessible), so any conflicting access from
// non-transactional code — which runs unmodified and uses primary
// addresses — triggers a segmentation fault. The fault handler resolves the
// conflict in favour of the non-transactional access (the transaction
// aborts and rolls back its undo log), preserving strong atomicity: no
// code, instrumented or not, ever observes mid-transaction state.
//
// Two details from the paper's description are reproduced:
//
//   - "Because such conflicts tend to be rare, the strategy achieves low
//     overheads": protection changes happen per page per transaction, not
//     per access.
//   - "In cases where a large amount of conflicts do occur, the system can
//     patch instructions that frequently cause segmentation faults to jump
//     to code that performs the same operation but within a transaction":
//     after PatchThreshold faults at one PC, the runtime makes that
//     instruction transaction-aware — it resolves conflicts directly and
//     accesses memory through the mirror, with no further faults.
//
// §7.2 then lists what Aikido adds over this design: per-thread (not
// process-wide) protection, redirection of *all* shared accesses rather
// than a few hot ones, and hypervisor-based transparency. The STM here is
// the other client of the mirror-page mechanism, demonstrating that the
// substrate generalizes beyond shared-data analyses.
package stm

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/mirror"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Counters summarizes STM runtime activity.
type Counters struct {
	Begins, Commits, Aborts uint64
	// TxAccesses counts transactional accesses to the managed region.
	TxAccesses uint64
	// NonTxConflicts counts faults by unmodified non-transactional code
	// on transaction-protected pages; TxTxConflicts counts transaction
	// pairs that collided on a page.
	NonTxConflicts uint64
	TxTxConflicts  uint64
	// ProtChanges counts page-protection updates; PatchedPCs counts
	// instructions rewritten to their transaction-aware form.
	ProtChanges uint64
	PatchedPCs  uint64
	// UndoBytes counts bytes rolled back by aborts.
	UndoBytes uint64
}

// undoRec is one undo-log entry.
type undoRec struct {
	addr uint64
	size uint8
	old  uint64
}

// txState is one thread's transaction.
type txState struct {
	tid     guest.TID
	active  bool
	aborted bool
	undo    []undoRec
	pages   map[uint64]bool // vpn -> wrote
}

// pageMeta is the ownership state of one managed page.
type pageMeta struct {
	writer  *txState
	readers map[*txState]struct{}
	curProt pagetable.Prot
	hasProt bool
}

// Runtime is the STM attached to one guest process.
type Runtime struct {
	p    *guest.Process
	lib  *hypervisor.Lib
	prov interface {
		FaultInfo(f *hypervisor.Fault) (uint64, bool)
	}
	mir   *mirror.Manager
	clock *stats.Clock

	// Strong enables the page-protection strong-atomicity machinery;
	// with it off the runtime is a weakly atomic undo-log STM (the
	// baseline the protection trick exists to improve on).
	Strong bool
	// PatchThreshold is the fault count at one PC after which the
	// instruction is patched to its transaction-aware form.
	PatchThreshold int

	regionBase, regionEnd uint64
	scratch               uint64

	tx       map[guest.TID]*txState
	pages    map[uint64]*pageMeta
	faultsAt map[isa.PC]int
	txAware  map[isa.PC]bool

	C Counters
}

// meta returns (creating) the ownership state for vpn.
func (r *Runtime) meta(vpn uint64) *pageMeta {
	m := r.pages[vpn]
	if m == nil {
		m = &pageMeta{readers: make(map[*txState]struct{}), curProt: pagetable.ProtRW}
		r.pages[vpn] = m
	}
	return m
}

// setProt recomputes and installs the primary-mapping protection for vpn
// from its ownership state (writer ⇒ no access, readers ⇒ read-only).
func (r *Runtime) setProt(vpn uint64, m *pageMeta) {
	if !r.Strong {
		return
	}
	want := pagetable.ProtRW
	switch {
	case m.writer != nil:
		want = pagetable.ProtNone
	case len(m.readers) > 0:
		want = pagetable.ProtRO
	}
	if m.hasProt && m.curProt == want {
		return
	}
	if want == pagetable.ProtRW {
		r.lib.ClearPage(vpn)
		m.hasProt = false
	} else {
		r.lib.SetDefaultProt(vpn, want, false)
		m.hasProt = true
	}
	m.curProt = want
	r.C.ProtChanges++
	r.clock.Charge(stats.Hypercall)
}

// rawRead reads guest memory through the page table, bypassing all
// protection (runtime-internal, like a kernel debugger read).
func (r *Runtime) rawRead(addr uint64, size uint8) uint64 {
	lo, hi, ok := r.rawFrames(addr, size)
	switch {
	case !ok:
		return 0
	case hi == vm.NoFrame:
		return r.p.M.ReadU(lo, vm.PageOff(addr), size)
	}
	return r.p.M.ReadSplit(lo, hi, vm.PageOff(addr), size)
}

// rawWrite is the write analogue of rawRead (undo-log rollback).
func (r *Runtime) rawWrite(addr uint64, size uint8, val uint64) {
	lo, hi, ok := r.rawFrames(addr, size)
	switch {
	case !ok:
		return
	case hi == vm.NoFrame:
		r.p.M.WriteU(lo, vm.PageOff(addr), size, val)
		return
	}
	r.p.M.WriteSplit(lo, hi, vm.PageOff(addr), size, val)
}

// rawFrames looks up the frame under addr and, when the size-byte access
// straddles the page end, the next page's frame as hi (NoFrame otherwise).
// Both pages are looked up before any side effect, as Hypervisor.Access
// does; ok is false when either is unmapped.
func (r *Runtime) rawFrames(addr uint64, size uint8) (lo, hi vm.FrameID, ok bool) {
	pte, ok := r.p.PT.Lookup(vm.PageNum(addr))
	if !ok {
		return vm.NoFrame, vm.NoFrame, false
	}
	if vm.PageOff(addr)+uint64(size) <= vm.PageSize {
		return pte.Frame, vm.NoFrame, true
	}
	next, ok := r.p.PT.Lookup(vm.PageNum(addr) + 1)
	if !ok {
		return vm.NoFrame, vm.NoFrame, false
	}
	return pte.Frame, next.Frame, true
}

// abort rolls back and releases a transaction (it stays formally active
// until its TxEnd, which reports the abort to the guest for retry).
func (r *Runtime) abort(tx *txState) {
	if tx.aborted || !tx.active {
		return
	}
	tx.aborted = true
	for i := len(tx.undo) - 1; i >= 0; i-- {
		rec := tx.undo[i]
		r.rawWrite(rec.addr, rec.size, rec.old)
		r.C.UndoBytes += uint64(rec.size)
	}
	tx.undo = nil
	r.release(tx)
}

// release drops tx's page ownerships and recomputes protections.
func (r *Runtime) release(tx *txState) {
	for vpn := range tx.pages {
		m := r.pages[vpn]
		if m == nil {
			continue
		}
		if m.writer == tx {
			m.writer = nil
		}
		delete(m.readers, tx)
		r.setProt(vpn, m)
	}
	tx.pages = make(map[uint64]bool)
}

// own acquires page ownership for tx, aborting conflicting transactions
// (conflicts are resolved in favour of the requester).
func (r *Runtime) own(tx *txState, vpn uint64, write bool) {
	m := r.meta(vpn)
	if m.writer != nil && m.writer != tx {
		r.C.TxTxConflicts++
		r.abort(m.writer)
	}
	if write {
		for other := range m.readers {
			if other != tx {
				r.C.TxTxConflicts++
				r.abort(other)
			}
		}
		m.writer = tx
		delete(m.readers, tx)
	} else if m.writer != tx {
		m.readers[tx] = struct{}{}
	}
	tx.pages[vpn] = tx.pages[vpn] || write
	r.setProt(vpn, m)
}

// resolveNonTx resolves a conflict in favour of non-transactional code:
// every transaction holding the page aborts.
func (r *Runtime) resolveNonTx(vpn uint64) {
	m := r.pages[vpn]
	if m == nil {
		return
	}
	if m.writer != nil {
		r.abort(m.writer)
	}
	for other := range m.readers {
		r.abort(other)
	}
}

// inRegion reports whether addr is in the managed region.
func (r *Runtime) inRegion(addr uint64) bool {
	return addr >= r.regionBase && addr < r.regionEnd
}

// secondPage returns the managed page holding the last byte of a
// size-byte access at addr, when the access straddles into it. Such an
// access holds both pages, so no half of it is visible mid-transaction.
func (r *Runtime) secondPage(addr uint64, size uint8) (uint64, bool) {
	end := addr + uint64(size) - 1
	return vm.PageNum(end), vm.PageNum(end) != vm.PageNum(addr) && r.inRegion(end)
}

// PreAccess is the per-access barrier (dbi plan callback). It returns the
// address at which the access should actually be performed.
func (r *Runtime) PreAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
	if !r.inRegion(addr) {
		return addr
	}
	tx := r.tx[tid]
	if tx == nil || !tx.active {
		// Non-transactional code runs unmodified on primary addresses —
		// unless this instruction was patched to its transaction-aware
		// form after faulting too often (§7.2).
		if r.txAware[pc] {
			r.resolveNonTx(vm.PageNum(addr))
			if vpn, ok := r.secondPage(addr, size); ok {
				r.resolveNonTx(vpn)
			}
			if maddr, ok := r.mir.Translate(addr); ok {
				r.clock.Charge(stats.MirrorRedirect)
				return maddr
			}
		}
		return addr
	}
	r.C.TxAccesses++
	if tx.aborted {
		// Doomed transaction: it keeps executing until its TxEnd, but
		// must not disturb memory. Reads go through the mirror; writes
		// land in the per-runtime scratch page.
		if write {
			return r.scratch + (addr & (vm.PageSize - 8))
		}
		if maddr, ok := r.mir.Translate(addr); ok {
			return maddr
		}
		return addr
	}
	r.own(tx, vm.PageNum(addr), write)
	if vpn, ok := r.secondPage(addr, size); ok {
		r.own(tx, vpn, write)
	}
	if write {
		tx.undo = append(tx.undo, undoRec{addr: addr, size: size, old: r.rawRead(addr, size)})
	}
	if maddr, ok := r.mir.Translate(addr); ok {
		r.clock.Charge(stats.MirrorRedirect)
		return maddr
	}
	return addr
}

// HandleFault is the SIGSEGV handler: a fault on a transaction-protected
// page by non-transactional code aborts the owning transactions and lets
// the access retry. Hot faulting instructions are patched transaction-aware.
func (r *Runtime) HandleFault(t *guest.Thread, pc isa.PC, in isa.Instr, f *hypervisor.Fault) dbi.FaultOutcome {
	addr, ours := r.prov.FaultInfo(f)
	if !ours {
		return dbi.FaultFatal
	}
	r.C.NonTxConflicts++
	r.resolveNonTx(vm.PageNum(addr))
	r.faultsAt[pc]++
	if r.PatchThreshold > 0 && r.faultsAt[pc] == r.PatchThreshold && !r.txAware[pc] {
		r.txAware[pc] = true
		r.C.PatchedPCs++
	}
	return dbi.FaultRetry
}

// TxBegin implements the guest hook.
func (r *Runtime) TxBegin(t *guest.Thread) int64 {
	r.C.Begins++
	tx := r.tx[t.ID]
	if tx == nil {
		tx = &txState{tid: t.ID, pages: make(map[uint64]bool)}
		r.tx[t.ID] = tx
	}
	if tx.active && !tx.aborted {
		// Nested begin: flatten by aborting the outer transaction (the
		// guest program is misusing the API; fail safe).
		r.abort(tx)
	}
	tx.active = true
	tx.aborted = false
	tx.undo = tx.undo[:0]
	r.clock.Charge(stats.AnalysisSync)
	return 1
}

// TxEnd implements the guest hook: 1 = committed, 0 = aborted (retry).
func (r *Runtime) TxEnd(t *guest.Thread) int64 {
	tx := r.tx[t.ID]
	if tx == nil || !tx.active {
		return 1
	}
	tx.active = false
	r.clock.Charge(stats.AnalysisSync)
	if tx.aborted {
		r.C.Aborts++
		return 0
	}
	r.release(tx)
	tx.undo = nil
	r.C.Commits++
	return 1
}

// String renders the counters.
func (c Counters) String() string {
	return fmt.Sprintf("begins=%d commits=%d aborts=%d txAccesses=%d nonTxConflicts=%d txTxConflicts=%d protChanges=%d patched=%d",
		c.Begins, c.Commits, c.Aborts, c.TxAccesses, c.NonTxConflicts, c.TxTxConflicts, c.ProtChanges, c.PatchedPCs)
}
