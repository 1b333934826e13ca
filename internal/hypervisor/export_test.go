package hypervisor

import "repro/internal/vm"

// DropTranslations drops every thread's translations of the pages [first,
// first+pages): their host-TLB entries, the frame and prot of their shadow
// cells, and the reverse map that names them. Each cell keeps its
// thread's exception, and protections, counters and temporarily
// unprotected pages stay as they are, so the next user access of any
// thread to those pages takes Translate's slow path. paged.Table has no
// iterator, so the caller names the pages it maps. FuzzTranslate's twin
// hypervisor calls it before every access.
func DropTranslations(h *Hypervisor, first uint64, pages int) {
	for vpn := first; vpn < first+uint64(pages); vpn++ {
		for _, v := range h.views {
			if v == nil {
				continue
			}
			v.tlb.Drop(vpn)
			if e := v.shadow.Get(vpn); e != nil {
				e.frame, e.prot = vm.NoFrame, 0
			}
		}
		if m := h.cachedBy.Get(vpn); m != nil {
			*m = 0
		}
	}
}
