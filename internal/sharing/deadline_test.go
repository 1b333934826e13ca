package sharing

import (
	"testing"

	"repro/internal/stats"
)

// TestEpochDeadlineBoundaries pins maybeEndEpoch's arithmetic at the
// edges: the deadline saturates instead of wrapping when cycles approach
// the uint64 limit (a wrapped deadline would sit below the clock forever
// and sweep on every subsequent check — a sweep storm), and a huge
// interval never ends an epoch at all.
func TestEpochDeadlineBoundaries(t *testing.T) {
	const max = ^uint64(0)
	detector := func(interval uint64) (*Detector, *stats.Clock) {
		clock := &stats.Clock{}
		d := &Detector{clock: clock}
		d.EnableEpochs(EpochPolicy{Interval: interval, DemoteAfter: 1})
		return d, clock
	}

	t.Run("wraparound saturates", func(t *testing.T) {
		d, clock := detector(max / 2)
		clock.Charge(max - 10) // cycles >= deadline, and cycles + interval wraps
		d.maybeEndEpoch()
		if d.C.EpochSweeps != 1 {
			t.Fatalf("first boundary: sweeps=%d, want 1", d.C.EpochSweeps)
		}
		if d.epochEnd != max {
			t.Fatalf("deadline = %d, want saturation at %d", d.epochEnd, max)
		}
		// The storm check: further checks below the saturated deadline
		// must not sweep.
		for i := 0; i < 5; i++ {
			clock.Charge(1)
			d.maybeEndEpoch()
		}
		if d.C.EpochSweeps != 1 {
			t.Errorf("post-saturation checks swept: sweeps=%d, want 1", d.C.EpochSweeps)
		}
	})

	t.Run("interval beyond remaining range", func(t *testing.T) {
		d, clock := detector(max - 1)
		clock.Charge(1 << 40)
		d.maybeEndEpoch()
		if d.C.EpochSweeps != 0 {
			t.Errorf("swept %d times under an unelapsed %d-cycle interval", d.C.EpochSweeps, max-1)
		}
	})
}
