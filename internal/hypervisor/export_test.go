package hypervisor

import "repro/internal/paged"

// DropTranslations empties every thread's host TLB and shadow table and
// the reverse map that names them. Protections, counters and temporarily
// unprotected pages stay as they are, so the next user access of any
// thread takes Translate's slow path. FuzzTranslate's twin hypervisor
// calls it before every access.
func DropTranslations(h *Hypervisor) {
	for _, v := range h.views {
		if v != nil {
			v.tlb = [tlbSize]tlbEntry{}
			v.shadow = paged.Table[shadowPTE]{}
		}
	}
	h.cachedBy = paged.Table[uint64]{}
}
