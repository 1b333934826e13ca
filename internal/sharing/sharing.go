// Package sharing implements AikidoSD, the Aikido sharing detector
// (paper §3.3). It drives the per-page state machine of Figure 3:
//
//	Unused ──first access by t──▶ Private(t) ──access by u≠t──▶ Shared
//
// using AikidoVM's per-thread page protection: all application pages start
// protected for everyone; the first fault makes the page private to the
// faulting thread (unprotected for it alone); a fault by any other thread
// makes the page shared and globally protected forever. From then on, every
// *instruction* that faults on a shared page is instrumented — its blocks
// are flushed and re-JITed with analysis instrumentation and its accesses
// are redirected to the page's mirror (Figure 4) — so the shared-data
// analysis sees exactly the accesses that touch shared pages while private
// accesses run at native speed.
//
// Mirror pages (§3.3.3) are AikidoSD's too: every application segment is
// aliased at a second virtual range backed by the same physical frames, so
// instrumented instructions reach the data while the primary pages stay
// protected. The real system backs each segment with a file and mmaps it
// twice; here guest.Backing plays the file and guest.Process.MapAlias the
// second mmap. The detector maps a segment's alias in the same VMAAdded
// that protects the segment (its interception of mmap and brk), records
// the alias's offset on the segment's Umbra region, and removes the alias
// in VMARemoved. A redirect is then one Umbra translation: the page-state
// cell and the offset come from the same lookup.
package sharing

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/umbra"
	"repro/internal/vm"
)

// MirrorBase is where mirror aliases are placed in the guest address space,
// far from every application region (see the isa layout constants). Each
// alias is followed by one unmapped guard page.
const MirrorBase uint64 = 0x0000_6000_0000_0000

// PageState is the sharing state of one application page.
type PageState uint8

// Page states (Figure 3). Shared is terminal under the paper's state
// machine; with an EpochPolicy enabled, epoch.go adds the demotion edges
// Shared→Private(owner) and Shared→Unused.
const (
	// Unused: no thread has touched the page since protection.
	Unused PageState = iota
	// Private: exactly one thread has touched the page.
	Private
	// Shared: at least two threads have touched the page.
	Shared
)

// String names the state.
func (s PageState) String() string {
	switch s {
	case Unused:
		return "unused"
	case Private:
		return "private"
	case Shared:
		return "shared"
	}
	return "state?"
}

// pageInfo is the per-page metadata stored in the first shadow map. The
// epoch fields pack the owner-dominance accounting of epoch-based
// re-privatization into the same cell: per epoch, who touched the page
// first and whether anyone else did, plus the cross-epoch dominance and
// quiescence streaks the demotion policy thresholds against.
type pageInfo struct {
	State PageState
	Owner guest.TID // valid when State == Private

	// Per-epoch accounting (reset at the end of every epoch).
	epochTID   guest.TID // first thread to touch the page this epoch
	epochHits  uint32    // accesses by epochTID this epoch
	epochOther uint32    // accesses by every other thread this epoch
	// Cross-epoch streaks.
	domTID      guest.TID // dominance candidate across consecutive epochs
	domEpochs   uint8     // consecutive epochs dominated by domTID
	quietEpochs uint8     // consecutive access-free epochs
	graceEpoch  bool      // just turned Shared; exempt from the next sweep
	wasDemoted  bool      // page was demoted at least once (reshare stats)
}

// Analysis is the shared-data analysis plugged into AikidoSD — it receives
// exactly the accesses that target shared pages.
type Analysis interface {
	OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool)
}

// Counters describes AikidoSD behaviour.
type Counters struct {
	// SharedPageAccesses counts instrumented accesses that actually hit a
	// shared page (column 3 of Table 2).
	SharedPageAccesses uint64
	// PrivateChecked counts instrumented (indirect) accesses whose
	// runtime check found a private page and skipped instrumentation.
	PrivateChecked uint64
	// PagesPrivate / PagesShared count state transitions.
	PagesPrivate uint64
	PagesShared  uint64
	// FaultsHandled counts Aikido faults routed to the detector;
	// SpuriousFaults counts faults on pages already private to the
	// faulting thread (normally zero).
	FaultsHandled  uint64
	SpuriousFaults uint64
	// InstrumentedPCs counts distinct instructions instrumented.
	InstrumentedPCs uint64
	// DRUnprotects counts DynamoRIO runtime accesses to protected pages
	// resolved with the unprotect/reprotect dance (§3.4).
	DRUnprotects uint64
	// PagesProtected counts pages protected at startup/mmap time.
	PagesProtected uint64

	// Epoch re-privatization (epoch.go; all zero when disabled).
	// EpochSweeps counts epoch-boundary sweeps; PagesDemotedPrivate and
	// PagesDemotedUnused count Shared→Private(owner) and Shared→Unused
	// demotions; PagesReshared counts demoted pages that later turned
	// Shared again (the re-protection fault fired, proving no
	// cross-thread access slipped through); PCsUninstrumented counts
	// instrumented instructions returned to native form.
	EpochSweeps         uint64
	PagesDemotedPrivate uint64
	PagesDemotedUnused  uint64
	PagesReshared       uint64
	PCsUninstrumented   uint64
}

// Detector is one AikidoSD instance.
type Detector struct {
	p   *guest.Process
	lib *hypervisor.Lib
	um  *umbra.Umbra
	// nextMirror is where the next segment's mirror alias goes.
	nextMirror uint64

	pages *umbra.ShadowMap[pageInfo]
	// instrumented is a bitmap keyed by code-cache PC (PCs are dense
	// instruction indices): the membership test on the fault path and at
	// block-build time is a shift+mask, not a map probe. Attach sizes it
	// from the program, whose length bounds every PC that executes, so
	// it never grows.
	instrumented []uint64
	ninstr       int
	analysis     Analysis
	// directPlan and indirectPlan are the two instrumentation plans every
	// instrumented instruction shares (Instrument).
	directPlan, indirectPlan *dbi.Plan

	// flush is wired to the DBI engine's Flush (SetEngine).
	flush func(pc isa.PC) int

	clock *stats.Clock

	// Epoch re-privatization (epoch.go): the policy, its enable bit, the
	// cycle at which the current epoch ends, and the dense list of Shared
	// pages the sweep walks. The deadline is checked ONLY on the
	// instrumented PreAccess path — never from HandleFault, where a sweep
	// demoting the faulting page to the faulting thread would make the
	// delivered fault look stale (a spurious fault).
	epoch      EpochPolicy
	epochOn    bool
	epochEnd   uint64
	epochPages []epochPage

	C Counters
}

// Attach builds an AikidoSD over an assembled Aikido stack, protects the
// application's entire address space through AikidoVM and mirrors every
// segment. The analysis may be nil (pure sharing profiling).
func Attach(p *guest.Process, lib *hypervisor.Lib, um *umbra.Umbra,
	analysis Analysis, clock *stats.Clock) *Detector {

	d := &Detector{
		p: p, lib: lib, um: um, nextMirror: MirrorBase,
		pages:        umbra.NewShadowMap[pageInfo](um, vm.PageSize),
		instrumented: make([]uint64, (len(p.Prog.Code)+63)/64),
		analysis:     analysis,
		clock:        clock,
	}
	d.directPlan, d.indirectPlan = d.newPlan(true), d.newPlan(false)

	// Protect and mirror every existing application segment ("starts by
	// mirroring all allocated pages within the target application's
	// address space"), then each new one as it appears (mmap/brk
	// interception).
	p.AddVMAListener(d)
	return d
}

// SetEngine wires the code-cache flush used when an instruction must be
// re-JITed with instrumentation.
func (d *Detector) SetEngine(e *dbi.Engine) { d.flush = e.Flush }

// mirrorContention returns the per-redirect contention charge: quadratic
// in the number of extra live guest threads, because every redirected
// access lands on the mirror copy of shared data and those lines
// ping-pong between all cores at once. Writes pay double (each store
// transfers exclusive ownership of the line); reads pay half (shared
// copies coexist until the next write).
func (d *Detector) mirrorContention(write bool) uint64 {
	n := uint64(0)
	if l := d.p.LiveThreads(); l > 1 {
		n = uint64(l - 1)
	}
	c := stats.MirrorContention * n * n
	if write {
		return 2 * c
	}
	return c / 2
}

// VMAAdded implements guest.VMAListener: a new application segment is
// protected for all threads (one batched hypercall per segment) and
// mirrored. The alias is mapped read-write at the next free mirror base,
// with a guard page after it so the aliases of adjacent segments never
// abut, and its offset is recorded on the segment's Umbra region.
func (d *Detector) VMAAdded(v *guest.VMA) {
	switch v.Kind {
	case guest.VMAShadow, guest.VMAMirror:
		return
	}
	d.lib.ProtectRange(vm.PageNum(v.Base), v.Pages)
	d.C.PagesProtected += uint64(v.Pages)

	base := d.nextMirror
	d.nextMirror += uint64(v.Pages+1) * vm.PageSize
	d.p.MapAlias(v, base, pagetable.ProtRW, guest.VMAMirror, v.Name)
	d.um.Region(v).Mirror = base - v.Base
	// Tell AikidoVM about the alias. AikidoVM keys protections by
	// virtual page, so the alias was never protected and the hypercall
	// records nothing; it stays because its charge is part of every
	// calibrated Aikido cycle count.
	d.lib.RegisterMirrorRange(vm.PageNum(base), v.Pages)
}

// VMARemoved implements guest.VMAListener: an unmapped segment's
// protection state and its mirror alias go with it (the shared frames are
// freed once both mappings are gone).
func (d *Detector) VMARemoved(v *guest.VMA) {
	switch v.Kind {
	case guest.VMAShadow, guest.VMAMirror:
		return
	}
	d.lib.ClearRange(vm.PageNum(v.Base), v.Pages)
	d.dropEpochRange(vm.PageNum(v.Base), v.Pages)
	d.p.UnmapAlias(v)
}

// PageStateOf reports the sharing state and owner of the page containing
// addr (the tests inspect Figure 3's state machine through it). It reads
// the page-state map without translating through Umbra, so it charges,
// counts and allocates nothing: a page whose region no access has reached
// reads as Unused.
func (d *Detector) PageStateOf(addr uint64) (PageState, guest.TID) {
	pi := d.pages.Peek(addr)
	if pi == nil {
		return Unused, guest.NoTID
	}
	return pi.State, pi.Owner
}

// InstrumentedPCs returns the number of distinct instrumented instructions.
func (d *Detector) InstrumentedPCs() int { return d.ninstr }

// isInstrumented tests the PC bitmap.
func (d *Detector) isInstrumented(pc isa.PC) bool {
	w := int(pc >> 6)
	return w < len(d.instrumented) && d.instrumented[w]&(1<<(pc&63)) != 0
}

// HandleFault is the master-signal-handler continuation for Aikido faults
// (wired as dbi.Engine.OnFault by the system assembly, §3.4). It performs
// the Figure 3 transitions and re-JITs faulting instructions on shared
// pages.
func (d *Detector) HandleFault(t *guest.Thread, pc isa.PC, in isa.Instr, f *hypervisor.Fault) dbi.FaultOutcome {
	// Obtain the true faulting address the way the real handler does —
	// for AikidoVM, from the registered slot rather than the (fake)
	// delivery address (§3.2.5).
	addr, ours := d.lib.FaultInfo(f)
	if !ours {
		// Genuine segmentation fault in the application: not ours.
		return dbi.FaultFatal
	}
	d.C.FaultsHandled++
	vpn := vm.PageNum(addr)
	pi := d.pages.Get(t.ID, addr)
	if pi == nil {
		return dbi.FaultFatal // fault outside every known region
	}

	switch pi.State {
	case Unused:
		// First scenario of Figure 3: make the page private to t.
		pi.State = Private
		pi.Owner = t.ID
		d.C.PagesPrivate++
		d.lib.UnprotectForThread(t.ID, vpn)
		return dbi.FaultRetry

	case Private:
		if pi.Owner == t.ID {
			// The page is supposedly ours yet we faulted — only
			// possible after external protection churn. Repair and
			// count it.
			d.C.SpuriousFaults++
			d.lib.UnprotectForThread(t.ID, vpn)
			return dbi.FaultRetry
		}
		// Third scenario: a second thread touched the page — it is now
		// shared and globally protected (terminally so unless an epoch
		// policy later demotes it).
		pi.State = Shared
		pi.Owner = guest.NoTID
		d.C.PagesPrivate--
		d.C.PagesShared++
		d.lib.RearmPage(vpn, guest.NoTID)
		d.noteShared(vpn, pi)
		d.instrument(pc)
		return dbi.FaultRetry

	case Shared:
		// Fourth scenario: a new instruction touched a shared page.
		d.instrument(pc)
		return dbi.FaultRetry
	}
	panic(fmt.Sprintf("sharing: invalid page state %d", pi.State))
}

// instrument marks pc as accessing shared data and flushes its cached
// blocks so the next execution is re-JITed with instrumentation (§3.3.2).
func (d *Detector) instrument(pc isa.PC) {
	if d.isInstrumented(pc) {
		return
	}
	d.instrumented[pc>>6] |= 1 << (pc & 63)
	d.ninstr++
	d.C.InstrumentedPCs++
	if d.flush != nil {
		d.flush(pc)
	}
}

// Instrument implements dbi.Tool: instructions known to access shared pages
// get the Figure 4 instrumentation; everything else runs untouched. All
// instrumented instructions of one kind (direct or indirect) share one
// prebuilt plan, so a re-JIT allocates no plan or closure.
func (d *Detector) Instrument(pc isa.PC, in isa.Instr) *dbi.Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	if !d.isInstrumented(pc) {
		return nil
	}
	if in.Op.IsDirect() {
		return d.directPlan
	}
	return d.indirectPlan
}

// newPlan builds the Figure 4 instrumentation for direct or indirect
// instructions. The callbacks read the detector's state at call time and
// take everything else from their arguments.
func (d *Detector) newPlan(direct bool) *dbi.Plan {
	return &dbi.Plan{PreAccess: func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
		// Epoch boundary (allocation-free): a due sweep runs before this
		// access observes page state, so demotions are never applied
		// mid-lookup. This is the only place an epoch ends — in
		// particular the fault path never ends one, so a delivered fault
		// can never be made stale by a sweep that demotes the faulting
		// page to the faulting thread mid-handling.
		d.maybeEndEpoch()
		// The emitted Figure-4 sequence: inlined translation, branch,
		// mirror-address computation, plus the re-JITed block's lost
		// optimization opportunities.
		d.clock.Charge(stats.InstrumentedExec)
		// shd_addr = app_to_shd(app_addr): one translation through
		// Umbra's caches (charged inside Lookup) yields both shadows, the
		// page-state cell and the region's mirror offset.
		pi, r := d.pages.Lookup(tid, addr)
		if pi == nil {
			return addr
		}
		if !direct {
			// Indirect instructions carry the emitted shared/private
			// branch; direct ones were rewritten unconditionally.
			d.clock.Charge(stats.SharedCheck)
			if pi.State != Shared {
				// Private fast-ish path: jump over instrumentation
				// and run the original access (it may fault and
				// drive a state transition).
				d.C.PrivateChecked++
				return addr
			}
		} else if d.epochOn && pi.State != Shared {
			// Transitional safety under demotion: a sweep may have just
			// demoted this page, and this unconditional-redirect plan
			// survives in already-JITed blocks until the flush takes
			// effect at the next block entry. Redirecting through the
			// mirror here would let a cross-thread access slip past the
			// re-armed protection without faulting — run the original
			// access instead, so it faults and re-drives the Figure 3
			// transition. The check is charged only on this exit, not
			// per direct access: it models the stale-window execution a
			// real system would eliminate with synchronous block
			// invalidation, not an emitted branch — steady-state direct
			// code is either the unconditional rewrite (page Shared) or
			// fully native (rebuilt after demotion), which is what
			// keeps the PARSEC reports byte-identical to the
			// terminal-Shared baseline.
			d.clock.Charge(stats.SharedCheck)
			d.C.PrivateChecked++
			return addr
		}
		// Shared: run the analysis, then make the access succeed
		// despite the global protection.
		d.C.SharedPageAccesses++
		if d.epochOn && pi.State == Shared {
			d.noteSharedAccess(tid, pi)
		}
		if d.analysis != nil {
			d.analysis.OnSharedAccess(tid, pc, addr, size, write)
		}
		d.clock.Charge(stats.MirrorRedirect + d.mirrorContention(write))
		return addr + r.Mirror
	}}
}

// TouchCode models DynamoRIO's own reads of application code pages during
// block building (§3.4): a read of a page protected for this thread faults
// inside DynamoRIO, which unprotects the page for the thread, performs the
// read, notes the page, and reprotects it before returning to application
// code. No sharing-state transition occurs.
func (d *Detector) TouchCode(tid guest.TID, addr uint64) {
	pi := d.pages.Get(tid, addr)
	if pi == nil {
		return
	}
	faults := false
	switch pi.State {
	case Unused, Shared:
		faults = true
	case Private:
		faults = pi.Owner != tid
	}
	if faults {
		d.C.DRUnprotects++
		// Fault into DynamoRIO's handler, then unprotect and reprotect.
		d.clock.Charge(stats.Fault)
		d.lib.UnprotectReprotect()
	}
}
