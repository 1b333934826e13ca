package faultinject

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParsePlanEmpty(t *testing.T) {
	for _, s := range []string{"", "  "} {
		p, err := ParsePlan(s)
		if err != nil || p != nil {
			t.Errorf("ParsePlan(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
	if !(*Plan)(nil).Empty() {
		t.Error("nil plan not Empty")
	}
	if (*Plan)(nil).NewInjector(nil) != nil {
		t.Error("nil plan built an injector")
	}
}

func TestParsePlanExplicit(t *testing.T) {
	p, err := ParsePlan("seed=7;error:provider@2;panic:analysis@100;stall:guest@3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 3 {
		t.Fatalf("plan = %+v", p)
	}
	want := []Rule{
		{Seam: SeamProvider, Kind: KindError, Count: 2},
		{Seam: SeamAnalysis, Kind: KindPanic, Count: 100},
		{Seam: SeamGuest, Kind: KindStall, Count: 3},
	}
	for i, r := range p.Rules {
		if r != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestParsePlanDerivedCounts: omitted counts resolve deterministically
// from the seed, differ across seeds, and round-trip through String.
func TestParsePlanDerivedCounts(t *testing.T) {
	a, err := ParsePlan("seed=1;panic:provider;error:guest")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePlan("seed=1;panic:provider;error:guest")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Errorf("same seed, rule %d differs: %+v vs %+v", i, a.Rules[i], b.Rules[i])
		}
		if a.Rules[i].Count == 0 || a.Rules[i].Count > derivedCountRange {
			t.Errorf("derived count %d out of range", a.Rules[i].Count)
		}
	}
	c, err := ParsePlan("seed=2;panic:provider;error:guest")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rules[0].Count == c.Rules[0].Count && a.Rules[1].Count == c.Rules[1].Count {
		t.Error("different seeds derived identical counts for every rule")
	}

	rt, err := ParsePlan(a.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", a.String(), err)
	}
	if rt.String() != a.String() {
		t.Errorf("round trip %q != %q", rt.String(), a.String())
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, tc := range []struct {
		plan   string
		errBit string // substring the error must contain ("" = any error)
	}{
		{"panic", ""},                             // no seam
		{"panic:elsewhere", ""},                   // unknown seam
		{"explode:guest", ""},                     // unknown kind
		{"panic:guest@0", ""},                     // zero count
		{"panic:guest@x", ""},                     // non-numeric count
		{"seed=x;panic:guest", ""},                // bad seed
		{"panic:guest;seed=3", ""},                // seed not first
		{"seed=3", ""},                            // no rules
		{"panic:guest@1@2", ""},                   // double count separator parses as bad count
		{";panic:guest;;seed=3", "at position 1"}, // empty elements take no position
		// The static pre-pass seam was deleted with the pass, and the drain
		// and reconcile seams with vectorized and phased dispatch.
		{"error:static@1", `unknown seam "static" (want provider, guest or analysis)`},
		{"error:drain@1", `unknown seam "drain" (want provider, guest or analysis)`},
		{"error:reconcile@1", `unknown seam "reconcile" (want provider, guest or analysis)`},
	} {
		_, err := ParsePlan(tc.plan)
		if err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", tc.plan)
		} else if !strings.Contains(err.Error(), tc.errBit) {
			t.Errorf("ParsePlan(%q) = %q, want it to contain %q", tc.plan, err, tc.errBit)
		}
	}
}

// TestParsePlanRejectsWorkerSeam: the parallel-dispatch worker seam no
// longer exists, so an old plan naming it fails loudly as an unknown seam
// instead of arming a fault that can never fire.
func TestParsePlanRejectsWorkerSeam(t *testing.T) {
	_, err := ParsePlan("error:worker@2")
	if err == nil || !strings.Contains(err.Error(), `unknown seam "worker"`) {
		t.Fatalf("ParsePlan(error:worker@2) = %v, want an unknown-seam error", err)
	}
}

// TestParsePlanEmptyElements: empty elements take no position, so a
// leading ';' does not push seed= off the front and every spelling below
// parses to the same plan.
func TestParsePlanEmptyElements(t *testing.T) {
	want, err := ParsePlan("seed=3;panic:guest")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{";seed=3;panic:guest", "seed=3;;panic:guest;", " ; seed=3 ;; panic:guest ; "} {
		got, err := ParsePlan(s)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", s, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", s, got, want)
		}
	}
}

// FuzzParsePlan: ParsePlan never panics, and every plan it accepts
// round-trips through String exactly, as Plan.String promises.
func FuzzParsePlan(f *testing.F) {
	// The CI chaos plans.
	for _, s := range []string{
		"",
		"seed=1;panic:analysis",
		"seed=2;error:analysis@2;stall:guest@40",
		"seed=3;error:guest@9;panic:provider@1;panic:analysis@4",
		"panic:provider@1",
		"seed=11;error:provider@1;stall:analysis@3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil || p == nil {
			return
		}
		rt, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, but its String %q fails: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(rt, p) {
			t.Fatalf("ParsePlan(%q) = %+v, round trip via %q = %+v", s, p, p.String(), rt)
		}
	})
}

// TestFireError: an error rule returns a typed *Fault exactly once, at
// exactly its crossing.
func TestFireError(t *testing.T) {
	p, err := ParsePlan("error:guest@3")
	if err != nil {
		t.Fatal(err)
	}
	in := p.NewInjector(nil)
	for i := 1; i <= 10; i++ {
		err := in.Fire(SeamGuest)
		if i == 3 {
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("crossing 3: err = %v, want *Fault", err)
			}
			if f.Seam != SeamGuest || f.Kind != KindError || f.Count != 3 {
				t.Errorf("fault = %+v", f)
			}
			continue
		}
		if err != nil {
			t.Errorf("crossing %d: unexpected error %v", i, err)
		}
	}
	if in.Crossings(SeamGuest) != 10 {
		t.Errorf("crossings = %d, want 10", in.Crossings(SeamGuest))
	}
}

// TestFirePanic: a panic rule panics with a typed *Fault.
func TestFirePanic(t *testing.T) {
	p, err := ParsePlan("panic:analysis@1")
	if err != nil {
		t.Fatal(err)
	}
	in := p.NewInjector(nil)
	func() {
		defer func() {
			r := recover()
			f, ok := r.(*Fault)
			if !ok {
				t.Fatalf("recovered %v (%T), want *Fault", r, r)
			}
			if f.Seam != SeamAnalysis || f.Kind != KindPanic || f.Count != 1 {
				t.Errorf("fault = %+v", f)
			}
		}()
		in.Fire(SeamAnalysis)
		t.Fatal("Fire did not panic")
	}()
	// One-shot: the next crossing is clean.
	if err := in.Fire(SeamAnalysis); err != nil {
		t.Errorf("second crossing: %v", err)
	}
}

// TestFireStall: a stall charges StallCycles to the wired clock and is
// not an error.
func TestFireStall(t *testing.T) {
	p, err := ParsePlan("stall:analysis@2")
	if err != nil {
		t.Fatal(err)
	}
	var charged uint64
	in := p.NewInjector(func(n uint64) { charged += n })
	if err := in.Fire(SeamAnalysis); err != nil || charged != 0 {
		t.Fatalf("crossing 1: err=%v charged=%d", err, charged)
	}
	if err := in.Fire(SeamAnalysis); err != nil {
		t.Fatalf("crossing 2: %v", err)
	}
	if charged != StallCycles {
		t.Errorf("charged = %d, want %d", charged, uint64(StallCycles))
	}
	if err := in.Fire(SeamAnalysis); err != nil || charged != StallCycles {
		t.Errorf("stall fired twice (charged=%d)", charged)
	}
}

// TestFireSeamsIndependent: counters are per seam; a rule on one seam
// never observes crossings of another.
func TestFireSeamsIndependent(t *testing.T) {
	p, err := ParsePlan("error:guest@1;error:analysis@2")
	if err != nil {
		t.Fatal(err)
	}
	in := p.NewInjector(nil)
	if err := in.Fire(SeamAnalysis); err != nil {
		t.Errorf("analysis crossing 1 fired guest rule: %v", err)
	}
	if err := in.Fire(SeamGuest); err == nil {
		t.Error("guest crossing 1 did not fire")
	}
	if err := in.Fire(SeamAnalysis); err == nil {
		t.Error("analysis crossing 2 did not fire")
	}
}

// TestNilInjector: the disabled path is a nil receiver everywhere.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if err := in.Fire(SeamGuest); err != nil {
		t.Errorf("nil injector fired: %v", err)
	}
	if in.Crossings(SeamGuest) != 0 {
		t.Error("nil injector counted")
	}
}
