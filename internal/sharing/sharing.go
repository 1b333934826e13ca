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
package sharing

import (
	"fmt"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/mirror"
	"repro/internal/stats"
	"repro/internal/umbra"
	"repro/internal/vm"
)

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
	mir *mirror.Manager

	pages *umbra.ShadowMap[pageInfo]
	// instrumented is a bitmap keyed by code-cache PC (PCs are dense
	// instruction indices): the membership test on the fault path and at
	// block-build time is a shift+mask, not a map probe.
	instrumented []uint64
	ninstr       int
	analysis     Analysis
	// directPlan and indirectPlan are the two instrumentation plans every
	// instrumented instruction shares (Instrument).
	directPlan, indirectPlan *dbi.Plan

	// flush is wired to the DBI engine's Flush (SetEngine).
	flush func(pc isa.PC) int

	clock *stats.Clock

	// live reports concurrently live guest threads; mirror redirects pay
	// a contention charge per extra thread (all redirected accesses
	// target the mirror copies of shared data, so their cache lines
	// ping-pong between cores). Nil means no contention accounting.
	live func() int

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

	// enabled gates page protection; Attach protects existing VMAs once
	// at the end so partially constructed state never observes faults.
	enabled bool

	C Counters
}

// Attach builds an AikidoSD over an assembled Aikido stack and protects the
// application's entire address space through AikidoVM. The analysis may be
// nil (pure sharing profiling).
func Attach(p *guest.Process, lib *hypervisor.Lib, um *umbra.Umbra,
	mir *mirror.Manager, analysis Analysis, clock *stats.Clock) *Detector {

	d := &Detector{
		p: p, lib: lib, um: um, mir: mir,
		pages:        umbra.NewShadowMap[pageInfo](um, vm.PageSize),
		instrumented: make([]uint64, (len(p.Prog.Code)+63)/64),
		analysis:     analysis,
		clock:        clock,
	}
	d.directPlan, d.indirectPlan = d.newPlan(true), d.newPlan(false)

	// Protect every existing application page, then keep protecting new
	// segments as they appear (mmap/brk interception).
	d.enabled = true
	p.AddVMAListener(d)
	return d
}

// SetEngine wires the code-cache flush used when an instruction must be
// re-JITed with instrumentation.
func (d *Detector) SetEngine(e *dbi.Engine) { d.flush = e.Flush }

// SetLiveThreads wires the live-thread count used for mirror contention
// accounting.
func (d *Detector) SetLiveThreads(f func() int) { d.live = f }

// mirrorContention returns the per-redirect contention charge: quadratic
// in the number of extra live threads, because every redirected access
// lands on the mirror copy of shared data and those lines ping-pong
// between all cores at once. Writes pay double (each store transfers
// exclusive ownership of the line); reads pay half (shared copies
// coexist until the next write).
func (d *Detector) mirrorContention(write bool) uint64 {
	if d.live == nil {
		return 0
	}
	n := uint64(0)
	if l := d.live(); l > 1 {
		n = uint64(l - 1)
	}
	c := stats.MirrorContention * n * n
	if write {
		return 2 * c
	}
	return c / 2
}

// VMAAdded implements guest.VMAListener: new application segments are
// protected for all threads (one batched hypercall per segment).
func (d *Detector) VMAAdded(v *guest.VMA) {
	if !d.enabled {
		return
	}
	switch v.Kind {
	case guest.VMAShadow:
		return
	case guest.VMAMirror:
		// Tell AikidoVM about the mirror alias. AikidoVM keys
		// protections by virtual page, so the alias was never
		// protected and the hypercall records nothing; it stays
		// because its charge is part of every calibrated Aikido
		// cycle count.
		d.lib.RegisterMirrorRange(vm.PageNum(v.Base), v.Pages)
		return
	}
	d.lib.ProtectRange(vm.PageNum(v.Base), v.Pages)
	d.C.PagesProtected += uint64(v.Pages)
}

// VMARemoved implements guest.VMAListener.
func (d *Detector) VMARemoved(v *guest.VMA) {
	switch v.Kind {
	case guest.VMAShadow, guest.VMAMirror:
		return
	}
	d.lib.ClearRange(vm.PageNum(v.Base), v.Pages)
	d.dropEpochRange(vm.PageNum(v.Base), v.Pages)
}

// PageStateOf reports the sharing state and owner of the page containing
// addr (the tests inspect Figure 3's state machine through it).
func (d *Detector) PageStateOf(addr uint64) (PageState, guest.TID) {
	pi := d.pages.Get(0, addr)
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
	if w := int(pc >> 6); w >= len(d.instrumented) {
		nb := make([]uint64, w+1)
		copy(nb, d.instrumented)
		d.instrumented = nb
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
		// shd_addr = app_to_shd(app_addr): the page-state lookup goes
		// through Umbra's translation caches (charged inside Get).
		pi := d.pages.Get(tid, addr)
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
		if m, ok := d.mir.Translate(addr); ok {
			d.clock.Charge(stats.MirrorRedirect + d.mirrorContention(write))
			return m
		}
		// No mirror (should not happen for app segments): let the
		// original access fault visibly rather than silently pass.
		return addr
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
