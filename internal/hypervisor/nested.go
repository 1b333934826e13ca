package hypervisor

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/vm"
)

// PagingMode selects AikidoVM's memory-virtualization strategy (§3.2.2).
//
// The paper's prototype uses shadow paging ("we refer only to the former
// shadow paging strategy") but argues the techniques "are generally
// applicable to hardware MMU virtualization systems based on nested paging
// as well". NestedPaging implements that claim and exposes the one place
// where it is *not* a drop-in swap: EPT permissions attach to guest-physical
// pages, so a mirror page — a second guest-virtual alias of the same frames
// — would inherit the very protection it exists to bypass. AikidoVM
// therefore needs the runtime to register mirror ranges (an extra hypercall,
// Lib.RegisterMirrorRange) so it can install an unprotected alternate EPT
// view for them.
type PagingMode uint8

// Paging modes.
const (
	// ShadowPaging maintains one shadow page table per guest thread; guest
	// page-table writes are trapped (write-protected guest PT pages) and
	// context switches swap the active shadow root.
	ShadowPaging PagingMode = iota
	// NestedPaging lets the hardware walk guest page tables and enforces
	// Aikido protections in per-thread EPT permission views. Guest
	// page-table updates need no traps, TLB misses pay the two-dimensional
	// walk, and view switches use an EPTP-switch (VMFUNC-style) instead of
	// a full shadow-root swap.
	NestedPaging
)

// String names the paging mode.
func (m PagingMode) String() string {
	switch m {
	case ShadowPaging:
		return "shadow-paging"
	case NestedPaging:
		return "nested-paging"
	}
	return "paging?"
}

// SwitchInterception selects how AikidoVM learns about guest context
// switches between threads of the Aikido-enabled process (§3.2.3). All
// three deliver the same information; they differ in cost and in how much
// of the guest must be modified.
type SwitchInterception uint8

// Context-switch interception mechanisms.
const (
	// SwitchHypercall is the paper prototype's mechanism: a hypercall
	// inserted into the guest kernel's context-switch procedure. Requires
	// guest kernel source modification.
	SwitchHypercall SwitchInterception = iota
	// SwitchSegTrap requests VM exits on writes to the FS/GS segment
	// registers, which the guest kernel updates on every context switch —
	// the paper's planned mechanism for truly unmodified guests.
	SwitchSegTrap
	// SwitchProbe inserts a trampoline-based probe (DTrace-style, paper
	// ref [11]) into the unmodified guest kernel's context-switch function
	// at runtime: no source changes, slightly more overhead per switch.
	SwitchProbe
)

// String names the interception mechanism.
func (s SwitchInterception) String() string {
	switch s {
	case SwitchHypercall:
		return "kernel-hypercall"
	case SwitchSegTrap:
		return "fsgs-trap"
	case SwitchProbe:
		return "trampoline-probe"
	}
	return "switch?"
}

// RequiresGuestModification reports whether the mechanism needs the guest
// kernel's source to be changed (the transparency axis of §3.2.3).
func (s SwitchInterception) RequiresGuestModification() bool {
	return s == SwitchHypercall
}

// interceptCost returns the per-switch cost of informing the hypervisor.
// The numbers are deliberately close: all three mechanisms cost roughly one
// VM exit; the paper prefers FS/GS trapping for transparency, not speed.
func (h *Hypervisor) interceptCost() uint64 {
	base := stats.ContextSwitch
	switch h.switchMode {
	case SwitchHypercall:
		return base
	case SwitchSegTrap:
		// Exit + instruction decode of the trapped segment write.
		return base + base/16
	case SwitchProbe:
		// Trampoline entry/exit around the hypercall.
		return base + base/8
	}
	return base
}

// tableSwitchCost returns the cost of activating the new thread's
// translation view: a shadow-root (CR3-analogue) write under shadow paging,
// an EPTP switch under nested paging.
func (h *Hypervisor) tableSwitchCost() uint64 {
	if h.mode == NestedPaging {
		return stats.EPTPSwitch
	}
	return stats.ShadowRootSwitch
}

// mirrorRange is one registered mirror alias range (nested paging only).
type mirrorRange struct {
	start uint64 // first vpn
	end   uint64 // first vpn past the range
}

// isMirrorVpn reports whether vpn lies in a registered mirror range.
func (h *Hypervisor) isMirrorVpn(vpn uint64) bool {
	i := sort.Search(len(h.mirrors), func(i int) bool { return h.mirrors[i].end > vpn })
	return i < len(h.mirrors) && vpn >= h.mirrors[i].start
}

// addMirrorRange records [start, start+pages) as a mirror alias range and
// keeps the slice sorted by end.
func (h *Hypervisor) addMirrorRange(start uint64, pages int) {
	r := mirrorRange{start: start, end: start + uint64(pages)}
	i := sort.Search(len(h.mirrors), func(i int) bool { return h.mirrors[i].end > r.end })
	h.mirrors = append(h.mirrors, mirrorRange{})
	copy(h.mirrors[i+1:], h.mirrors[i:])
	h.mirrors[i] = r
}

// frameOf resolves the guest-physical frame currently backing vpn, if any.
func (h *Hypervisor) frameOf(vpn uint64) (vm.FrameID, bool) {
	pte, ok := h.pt.Lookup(vpn)
	if !ok {
		return vm.NoFrame, false
	}
	return pte.Frame, true
}

// invalidateFrame drops every cached translation whose vpn is known to map
// frame (nested paging protection changes).
func (h *Hypervisor) invalidateFrame(frame vm.FrameID) {
	for vpn := range h.frameVpns[frame] {
		h.invalidate(vpn)
	}
}

// noteFrameVpn records that vpn was observed mapping frame, for reverse
// invalidation. Stale entries (after a guest remap) are harmless: an
// invalidation of a vpn that no longer maps the frame only drops a cache
// entry that would repopulate correctly.
func (h *Hypervisor) noteFrameVpn(frame vm.FrameID, vpn uint64) {
	s := h.frameVpns[frame]
	if s == nil {
		s = make(map[uint64]struct{})
		h.frameVpns[frame] = s
	}
	s[vpn] = struct{}{}
}
