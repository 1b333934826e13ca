package sharing

// Epoch-based re-privatization. The Figure 3 state machine makes Shared
// terminal: once two threads touch a page it is instrumented forever, so
// barrier-phased and migratory programs (data handed off between threads
// per phase) keep paying full instrumentation long after a page is again
// effectively private. This file adds the demotion edges:
//
//	Shared ──owner-dominated for DemoteAfter epochs──▶ Private(owner)
//	Shared ──untouched for QuietAfter epochs─────────▶ Unused
//
// The mechanism is the one the page-protection seam already guarantees:
// demotion re-arms the page's protection through AikidoVM (one hypercall
// per page, cf. Oreo's versioned protection domains), so
// the first post-demotion access by any thread other than the new owner
// still faults and re-drives the ordinary Figure 3 transitions. Soundness
// is therefore unchanged — a cross-thread access can never slip through —
// while pages that have gone effectively private return to native-speed
// execution once their instrumented instructions are flushed.
//
// Accounting is packed into the existing page-state shadow table
// (pageInfo): per epoch, each Shared page records its first toucher and
// counts accesses by that thread vs everyone else. An epoch ends when the
// simulated clock passes the detector's deadline, checked on the
// instrumented hot path only. The decision depends only on simulated
// cycles, never on wall-clock time or host scheduling.

import (
	"math/bits"

	"repro/internal/guest"
	"repro/internal/isa"
)

// EpochPolicy parameterizes epoch-based re-privatization of Shared pages.
// The zero value disables the mechanism entirely (terminal Shared, the
// paper's Figure 3 behaviour).
type EpochPolicy struct {
	// Interval is the epoch length in simulated cycles. 0 disables
	// re-privatization.
	Interval uint64
	// DemoteAfter is the number of consecutive epochs a Shared page must
	// be dominated by a single thread (no accesses by anyone else) before
	// it is demoted to Private(owner). 0 disables owner demotion.
	DemoteAfter uint8
	// QuietAfter is the number of consecutive access-free epochs before a
	// Shared page is demoted to Unused. 0 disables quiet demotion.
	QuietAfter uint8
	// MinOwnerHits is the minimum number of accesses the dominating
	// thread must make for an epoch to count toward DemoteAfter; epochs
	// with fewer look quiet-ish and are treated as neutral. Guards
	// against demoting on the trailing edge of a phase where one thread
	// merely ran last. 0 is treated as 1 — a wholly quiet epoch must
	// never count as owner-dominated.
	MinOwnerHits uint32
}

// Enabled reports whether the policy re-privatizes at all.
func (p EpochPolicy) Enabled() bool {
	return p.Interval > 0 && (p.DemoteAfter > 0 || p.QuietAfter > 0)
}

// DefaultEpochPolicy is the calibrated default, which core.DefaultConfig
// sets: epochs long enough that the steadily-sharing PARSEC models never
// demote (their findings and cycles stay byte-identical to the
// terminal-Shared baseline, which core's TestEpochParsecByteIdentical
// pins), short enough that phased/migratory workloads demote within a
// fraction of one phase.
func DefaultEpochPolicy() EpochPolicy {
	return EpochPolicy{
		// The interval must span several full scheduling rounds: one
		// thread's quantum costs tens of thousands of cycles under
		// instrumentation, and an epoch shorter than a round makes
		// whoever happened to be scheduled look like an owner.
		Interval:     1_000_000,
		DemoteAfter:  2,
		QuietAfter:   6,
		MinOwnerHits: 4,
	}
}

// epochPage is one Shared page under epoch accounting: the sweep walks
// this dense list, never the whole shadow table.
type epochPage struct {
	vpn uint64
	pi  *pageInfo
}

// EnableEpochs sets the detector's epoch policy. An enabled policy
// switches it to the demoting state machine, with the first epoch ending
// at p.Interval cycles; any other leaves Figure 3's terminal Shared. Must
// be called before the guest runs (the list of Shared pages is maintained
// from the first transition onwards).
func (d *Detector) EnableEpochs(p EpochPolicy) {
	if p.MinOwnerHits == 0 {
		p.MinOwnerHits = 1
	}
	d.epoch = p
	d.epochOn = p.Enabled()
	d.epochEnd = p.Interval
}

// maybeEndEpoch ends the current epoch once the simulated clock has
// reached its deadline. It inlines into PreAccess: on the common path it
// is a flag test and one compare.
func (d *Detector) maybeEndEpoch() {
	if d.epochOn && d.clock.Cycles() >= d.epochEnd {
		d.endEpoch()
	}
}

// EpochPages returns the number of Shared pages currently under epoch
// accounting (tests).
func (d *Detector) EpochPages() int { return len(d.epochPages) }

// noteShared registers a page that just turned Shared with the epoch
// accountant. Called from HandleFault on the Private→Shared transition.
// The grace flag exempts the page from the next sweep: the faulting
// access that caused this transition has not retired through the
// instrumented path yet, and under a pathologically short quiet policy
// an intervening sweep could otherwise demote the page again before the
// analysis ever sees that access.
func (d *Detector) noteShared(vpn uint64, pi *pageInfo) {
	if !d.epochOn {
		return
	}
	if pi.wasDemoted {
		d.C.PagesReshared++
	}
	pi.epochTID = guest.NoTID
	pi.epochHits, pi.epochOther = 0, 0
	pi.domTID = guest.NoTID
	pi.domEpochs, pi.quietEpochs = 0, 0
	pi.graceEpoch = true
	d.epochPages = append(d.epochPages, epochPage{vpn: vpn, pi: pi})
}

// noteSharedAccess feeds one instrumented access into the page's epoch
// accounting: the first toucher of the epoch is the dominance candidate,
// and everyone else's accesses veto demotion. Free in simulated cycles
// (bookkeeping only) and allocation-free.
func (d *Detector) noteSharedAccess(tid guest.TID, pi *pageInfo) {
	if pi.epochHits == 0 && pi.epochOther == 0 {
		pi.epochTID = tid
	}
	if tid == pi.epochTID {
		pi.epochHits++
	} else {
		pi.epochOther++
	}
}

// endEpoch closes the current epoch. The next one ends an interval past
// the current cycle count; that deadline saturates instead of wrapping
// when cycles approach the uint64 limit, since a wrapped deadline would
// sit below the clock forever and end an epoch on every check. Then the
// sweep: every Shared page's accounting is folded into its
// dominance/quiescence streak, qualifying pages are demoted — protection
// re-armed with one AikidoLib hypercall per page — and, when
// anything was demoted, the instrumented-PC set is cleared so demoted
// pages return to native-speed execution. Pages that are still genuinely
// shared re-instrument themselves through the ordinary fault path (they
// remain globally protected).
//
// Called only from the detector's own PreAccess path, so it never runs
// concurrently with an access.
func (d *Detector) endEpoch() {
	cy := d.clock.Cycles()
	next := cy + d.epoch.Interval
	if next < cy {
		next = ^uint64(0)
	}
	d.epochEnd = next
	d.C.EpochSweeps++
	w := 0
	demoted := false
	for _, e := range d.epochPages {
		pi := e.pi
		if pi.State != Shared {
			// Unmapped or externally transitioned while listed: drop.
			continue
		}
		if pi.graceEpoch {
			// The page turned Shared during this epoch: give it one
			// full epoch of accounting before any demotion verdict.
			pi.graceEpoch = false
			pi.epochTID = guest.NoTID
			pi.epochHits, pi.epochOther = 0, 0
			d.epochPages[w] = e
			w++
			continue
		}
		switch {
		case pi.epochOther == 0 && pi.epochHits >= d.epoch.MinOwnerHits:
			if pi.domEpochs > 0 && pi.domTID == pi.epochTID {
				pi.domEpochs++
			} else {
				pi.domTID = pi.epochTID
				pi.domEpochs = 1
			}
			pi.quietEpochs = 0
		case pi.epochHits == 0 && pi.epochOther == 0:
			pi.quietEpochs++
			pi.domEpochs = 0
		default:
			// Genuinely shared this epoch (or too few owner hits to
			// judge): reset both streaks.
			pi.domEpochs = 0
			pi.quietEpochs = 0
		}
		pi.epochTID = guest.NoTID
		pi.epochHits, pi.epochOther = 0, 0

		if d.epoch.DemoteAfter > 0 && pi.domEpochs >= d.epoch.DemoteAfter {
			// Off the list: demoted pages no longer need accounting.
			d.demote(e.vpn, pi, Private, pi.domTID)
			demoted = true
			continue
		}
		if d.epoch.QuietAfter > 0 && pi.quietEpochs >= d.epoch.QuietAfter {
			d.demote(e.vpn, pi, Unused, guest.NoTID)
			demoted = true
			continue
		}
		d.epochPages[w] = e
		w++
	}
	// Clear the dropped tail so demoted entries don't pin their pageInfo.
	for i := w; i < len(d.epochPages); i++ {
		d.epochPages[i] = epochPage{}
	}
	d.epochPages = d.epochPages[:w]
	if demoted {
		d.uninstrumentAll()
	}
}

// demote moves one Shared page back to Private(owner) or Unused and
// re-arms its protection with one AikidoLib hypercall, which Lib counts
// and charges: the page is protected for every current and future thread,
// with the new owner (if any) alone re-granted access.
func (d *Detector) demote(vpn uint64, pi *pageInfo, to PageState, owner guest.TID) {
	d.lib.RearmPage(vpn, owner)
	pi.State = to
	pi.Owner = owner
	pi.domEpochs, pi.quietEpochs = 0, 0
	pi.wasDemoted = true
	d.C.PagesShared--
	if to == Private {
		d.C.PagesPrivate++
		d.C.PagesDemotedPrivate++
	} else {
		d.C.PagesDemotedUnused++
	}
}

// uninstrumentAll clears the instrumented-PC bitmap and flushes every
// re-JITed block, returning all instructions to their native form. Safe
// at any time: still-Shared pages remain globally protected, so their
// next access faults and re-instruments exactly as the first one did.
// Demoted pages' instructions run native from here on — the point of the
// whole exercise.
func (d *Detector) uninstrumentAll() {
	if d.ninstr == 0 {
		return
	}
	d.C.PCsUninstrumented += uint64(d.ninstr)
	for w, word := range d.instrumented {
		if word == 0 {
			continue
		}
		d.instrumented[w] = 0
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			if d.flush != nil {
				d.flush(isa.PC(w<<6 + bit))
			}
		}
	}
	d.ninstr = 0
}

// dropEpochRange forgets epoch entries for pages inside an unmapped
// segment (their pageInfo cells are gone with the region shadow).
func (d *Detector) dropEpochRange(vpnBase uint64, pages int) {
	if !d.epochOn || len(d.epochPages) == 0 {
		return
	}
	end := vpnBase + uint64(pages)
	w := 0
	for _, e := range d.epochPages {
		if e.vpn >= vpnBase && e.vpn < end {
			continue
		}
		d.epochPages[w] = e
		w++
	}
	for i := w; i < len(d.epochPages); i++ {
		d.epochPages[i] = epochPage{}
	}
	d.epochPages = d.epochPages[:w]
}
