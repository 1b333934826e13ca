package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockChargeAndReset(t *testing.T) {
	var c Clock
	c.Charge(10)
	c.Charge(5)
	if c.Cycles() != 15 {
		t.Errorf("Cycles = %d", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestSlowdown(t *testing.T) {
	var c Clock
	c.Charge(300)
	if got := c.Slowdown(100); got != 3.0 {
		t.Errorf("Slowdown = %v", got)
	}
	if c.Slowdown(0) != 0 {
		t.Error("zero baseline not guarded")
	}
	if Ratio(10, 4) != 2.5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{5}); math.Abs(g-5) > 1e-9 {
		t.Errorf("Geomean(5) = %v", g)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean != 0")
	}
	// Non-positive values are skipped, not poisonous.
	if g := Geomean([]float64{0, -1, 4}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean with junk = %v", g)
	}
}

func TestGeomeanBounds(t *testing.T) {
	// Property: min ≤ geomean ≤ max for positive inputs.
	prop := func(xs []uint8) bool {
		var vals []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			v := float64(x) + 1
			vals = append(vals, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(vals) == 0 {
			return true
		}
		g := Geomean(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatters(t *testing.T) {
	if FormatX(76.254) != "76.25x" {
		t.Errorf("FormatX = %q", FormatX(76.254))
	}
	if FormatPct(0.123) != "12.30%" {
		t.Errorf("FormatPct = %q", FormatPct(0.123))
	}
}

// TestCostSanity pins the structural relations between the costs that
// the experiments rely on.
func TestCostSanity(t *testing.T) {
	if NativeInstr != 1 {
		t.Error("native instruction must cost 1 cycle (the normalization unit)")
	}
	if Fault <= Hypercall {
		t.Error("a fault must cost more than a hypercall")
	}
	if ShadowTranslateMiss <= ShadowTranslate {
		t.Error("translation miss must cost more than a hit")
	}
	if AnalysisSlow <= AnalysisFast {
		t.Error("analysis slow path must cost more than the fast path")
	}
	if DispatchLinked >= DispatchBlock {
		t.Error("linked dispatch must be cheaper than a lookup")
	}
}
