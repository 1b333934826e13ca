package sampler

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
)

func det() *Detector { return New(&stats.Clock{}, DefaultConfig()) }

func TestInitialBurstFullyAnalyzed(t *testing.T) {
	d := det()
	for i := 0; i < int(d.cfg.InitialBurst); i++ {
		d.OnAccess(1, 10, 0x1000, 8, true)
	}
	if d.C.Sampled != uint64(d.cfg.InitialBurst) {
		t.Errorf("burst: sampled %d of %d", d.C.Sampled, d.cfg.InitialBurst)
	}
}

func TestHotCodeBacksOff(t *testing.T) {
	d := det()
	for i := 0; i < 100_000; i++ {
		d.OnAccess(1, 10, 0x1000, 8, true)
	}
	rate := d.SampleRate()
	if rate > 0.01 {
		t.Errorf("hot PC sample rate = %.4f, want < 1%%", rate)
	}
	if d.C.Sampled == 0 {
		t.Error("sampling floor reached zero")
	}
}

func TestColdCodeStaysSampled(t *testing.T) {
	// Many distinct PCs, few executions each: nearly everything sampled
	// (LiteRace's cold-region hypothesis).
	d := det()
	for pc := 0; pc < 1000; pc++ {
		for i := 0; i < 4; i++ {
			d.OnAccess(1, isaPC(pc), 0x1000+uint64(pc)*8, 8, true)
		}
	}
	if rate := d.SampleRate(); rate < 0.99 {
		t.Errorf("cold code sample rate = %.4f, want ~1", rate)
	}
}

func TestSamplerStillCatchesColdRace(t *testing.T) {
	d := det()
	// A race on first executions of two PCs: within the burst, caught.
	d.OnAccess(1, 10, 0x1000, 8, true)
	d.OnAccess(2, 20, 0x1000, 8, true)
	if len(d.Races()) != 1 {
		t.Errorf("cold race missed: %v", d.Races())
	}
}

func TestSamplerMissesHotRace(t *testing.T) {
	d := det()
	// Make PC 10 and 20 blazing hot on DISJOINT data first.
	for i := 0; i < 50_000; i++ {
		d.OnAccess(1, 10, 0x1000, 8, true)
		d.OnAccess(2, 20, 0x2000, 8, true)
	}
	// Now a single racy pair on fresh data through the hot PCs: with a
	// sampling period of 1024, the chance both executions are sampled is
	// effectively nil — deterministically, neither lands on a sampling
	// point here.
	before := len(d.Races())
	d.OnAccess(1, 10, 0x3000, 8, true)
	d.OnAccess(2, 20, 0x3000, 8, true)
	if len(d.Races()) != before {
		t.Errorf("expected the hot-path race to be missed (false negative), got %v", d.Races())
	}
}

func TestSyncNeverSampledAway(t *testing.T) {
	d := det()
	// Heat up the PCs, then check lock ordering still suppresses races:
	// if sync events were sampled, this would misfire.
	for i := 0; i < 10_000; i++ {
		d.OnAcquire(1, 7)
		d.OnAccess(1, 10, 0x1000, 8, true)
		d.OnRelease(1, 7)
		d.OnAcquire(2, 7)
		d.OnAccess(2, 20, 0x1000, 8, true)
		d.OnRelease(2, 7)
	}
	if len(d.Races()) != 0 {
		t.Errorf("lock-ordered accesses raced under sampling: %v", d.Races())
	}
}

func isaPC(i int) isa.PC { return isa.PC(i) }
