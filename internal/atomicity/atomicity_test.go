package atomicity

import (
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/stats"
)

func det() *Detector { return New(&stats.Clock{}) }

const v = uint64(0x3000)

// region wraps accesses in a lock-held span.
func region(d *Detector, tid guest.TID, f func()) {
	d.OnAcquire(tid, 1)
	f()
	d.OnRelease(tid, 1)
}

func TestSerializableInterleavingsClean(t *testing.T) {
	cases := []struct {
		name      string
		l1, r, l2 bool // write flags
	}{
		{"R-R-R", false, false, false},
		{"R-R-W", false, false, true},
		{"W-R-R", true, false, false},
		{"W-W-W", true, true, true},
	}
	for _, c := range cases {
		d := det()
		region(d, 1, func() {
			d.OnAccess(1, 1, v, 8, c.l1)
			d.OnAccess(2, 2, v, 8, c.r) // remote, outside any region
			d.OnAccess(1, 3, v, 8, c.l2)
		})
		if got := d.Violations(); len(got) != 0 {
			t.Errorf("%s: serializable triple reported: %v", c.name, got)
		}
	}
}

func TestUnserializableInterleavingsReported(t *testing.T) {
	cases := []struct {
		name      string
		l1, r, l2 bool
	}{
		{"R-W-R", false, true, false},
		{"W-W-R", true, true, false},
		{"W-R-W", true, false, true},
		{"R-W-W", false, true, true},
	}
	for _, c := range cases {
		d := det()
		region(d, 1, func() {
			d.OnAccess(1, 1, v, 8, c.l1)
			d.OnAccess(2, 2, v, 8, c.r)
			d.OnAccess(1, 3, v, 8, c.l2)
		})
		got := d.Violations()
		if len(got) != 1 {
			t.Errorf("%s: violations = %v, want 1", c.name, got)
			continue
		}
		if got[0].Pattern != c.name {
			t.Errorf("pattern = %s, want %s", got[0].Pattern, c.name)
		}
		if got[0].Local != 1 || got[0].Remote != 2 {
			t.Errorf("attribution wrong: %+v", got[0])
		}
	}
}

func TestNoRegionNoCheck(t *testing.T) {
	// The same R-W-R triple outside any lock span: no intended atomicity,
	// no report.
	d := det()
	d.OnAccess(1, 1, v, 8, false)
	d.OnAccess(2, 2, v, 8, true)
	d.OnAccess(1, 3, v, 8, false)
	if len(d.Violations()) != 0 {
		t.Errorf("region-free accesses reported: %v", d.Violations())
	}
}

func TestRegionBoundaryResets(t *testing.T) {
	// l1 in one region, l2 in a LATER region of the same thread: distinct
	// regions, the interleaving is not a violation of either.
	d := det()
	region(d, 1, func() { d.OnAccess(1, 1, v, 8, false) })
	d.OnAccess(2, 2, v, 8, true)
	region(d, 1, func() { d.OnAccess(1, 3, v, 8, false) })
	if len(d.Violations()) != 0 {
		t.Errorf("cross-region triple reported: %v", d.Violations())
	}
}

func TestNestedLocksOneRegion(t *testing.T) {
	d := det()
	d.OnAcquire(1, 1)
	d.OnAccess(1, 1, v, 8, false)
	d.OnAcquire(1, 2) // nesting must not split the region
	d.OnAccess(2, 2, v, 8, true)
	d.OnRelease(1, 2)
	d.OnAccess(1, 3, v, 8, false)
	d.OnRelease(1, 1)
	if len(d.Violations()) != 1 {
		t.Errorf("nested-lock region lost the violation: %v", d.Violations())
	}
	if d.C.Regions != 1 {
		t.Errorf("regions = %d, want 1", d.C.Regions)
	}
}

func TestNoInterleaverNoViolation(t *testing.T) {
	d := det()
	region(d, 1, func() {
		d.OnAccess(1, 1, v, 8, false)
		d.OnAccess(1, 2, v, 8, true)
		d.OnAccess(1, 3, v, 8, false)
	})
	if len(d.Violations()) != 0 {
		t.Errorf("uninterleaved region reported: %v", d.Violations())
	}
}

func TestOneReportPerVariable(t *testing.T) {
	d := det()
	for i := 0; i < 10; i++ {
		region(d, 1, func() {
			d.OnAccess(1, 1, v, 8, false)
			d.OnAccess(2, 2, v, 8, true)
			d.OnAccess(1, 3, v, 8, false)
		})
	}
	if len(d.Violations()) != 1 {
		t.Errorf("duplicate reports: %d", len(d.Violations()))
	}
}

func TestDistinctVariablesIndependent(t *testing.T) {
	d := det()
	region(d, 1, func() {
		d.OnAccess(1, 1, v, 8, false)
		d.OnAccess(2, 2, v+64, 8, true) // remote touches a DIFFERENT var
		d.OnAccess(1, 3, v, 8, false)
	})
	if len(d.Violations()) != 0 {
		t.Errorf("cross-variable interleaving reported: %v", d.Violations())
	}
}

func TestViolationString(t *testing.T) {
	w := Violation{Addr: v, Local: 1, Remote: 2, Pattern: "R-W-R", PC: 9}
	if !strings.Contains(w.String(), "R-W-R") {
		t.Errorf("String = %q", w.String())
	}
}
