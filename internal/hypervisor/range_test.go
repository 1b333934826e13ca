package hypervisor

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestProtectRangeBatched: a ranged protect denies every page in the range
// for every thread while costing exactly one hypercall.
func TestProtectRangeBatched(t *testing.T) {
	t.Run("shadow", func(t *testing.T) {
		_, h := fixture(t)
		base := vm.PageNum(isa.DataBase)
		lib := h.Lib()

		pre := h.Stats.Hypercalls
		lib.ProtectRange(base, 2)
		if got := h.Stats.Hypercalls - pre; got != 1 {
			t.Errorf("ProtectRange cost %d hypercalls, want 1 (batched)", got)
		}
		for i := uint64(0); i < 2; i++ {
			if _, fault := h.Load(3, (base+i)<<12, 8, true); fault == nil {
				t.Errorf("page %d in range not protected", i)
			}
		}

		pre = h.Stats.Hypercalls
		lib.ClearRange(base, 2)
		if got := h.Stats.Hypercalls - pre; got != 1 {
			t.Errorf("ClearRange cost %d hypercalls, want 1 (batched)", got)
		}
		for i := uint64(0); i < 2; i++ {
			if _, fault := h.Load(3, (base+i)<<12, 8, true); fault != nil {
				t.Errorf("page %d still protected after ClearRange: %v", i, fault)
			}
		}
	})
}

// TestRangeClearsOverrides: ProtectRange removes prior per-thread
// unprotections, like the single-page RearmPage does.
func TestRangeClearsOverrides(t *testing.T) {
	_, h := fixture(t)
	lib := h.Lib()
	vpn := vm.PageNum(isa.DataBase)

	lib.RearmPage(vpn, guest.NoTID)
	lib.UnprotectForThread(1, vpn)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatal("override not installed")
	}
	lib.ProtectRange(vpn, 1)
	if _, fault := h.Load(1, isa.DataBase, 8, true); fault == nil {
		t.Fatal("ProtectRange left thread 1's override in place")
	}
}
