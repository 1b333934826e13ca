// Package sampler implements a LiteRace-style sampling wrapper
// (Marino et al., PLDI 2009) — the *other* way to cut instrumentation cost
// that the paper positions Aikido against (§1, §7.3): instead of limiting
// analysis to shared pages (no accuracy loss beyond the first-access
// window), sampling analyzes a random subset of accesses and trades false
// negatives for speed.
//
// The sampler wraps any registered shared-data analysis — FastTrack by
// default, but equally LockSet or the atomicity checker through the
// registry's "sampled:<name>" composition syntax — with LiteRace's
// "cold-region hypothesis" adaptive sampling: each static instruction
// starts at a 100 % sampling rate (newly executed code is where bugs hide)
// and decays geometrically toward a floor as it gets hotter.
// Synchronization events are always forwarded, so the wrapped analysis's
// happens-before (or lockset/region) state stays sound — only data
// accesses are dropped.
//
// It exists to reproduce the paper's qualitative claim: a sampling
// detector is fast but misses findings that Aikido-hosted analyses still
// catch. The extension experiment in internal/experiments quantifies this.
package sampler

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fasttrack"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Kind is the wrapper's registry name; the composed form is
// "sampled:<inner>".
const Kind = "sampled"

func init() {
	analysis.RegisterWrapper(Kind, fasttrack.Kind,
		func(inner analysis.Analysis, innerName string, env analysis.Env) (analysis.Analysis, error) {
			return Wrap(inner, env.Clock, DefaultConfig()), nil
		})
}

// Config tunes the adaptive sampler.
type Config struct {
	// InitialBurst is how many executions of a PC are always analyzed.
	InitialBurst uint32
	// DecayShift halves the sampling period... rather: after the burst,
	// a PC is sampled once every Period executions, and Period doubles
	// after each sampled execution until it reaches MaxPeriod.
	MaxPeriod uint32
}

// DefaultConfig matches LiteRace's spirit: analyze new code thoroughly,
// back off to a fraction of a percent on hot code.
func DefaultConfig() Config {
	return Config{InitialBurst: 8, MaxPeriod: 1024}
}

// pcState is the per-static-instruction sampling state.
type pcState struct {
	execs  uint32
	period uint32
	next   uint32 // execs value at which the next sample fires
}

// Counters describes sampler behaviour.
type Counters struct {
	// Seen counts access events offered; Sampled counts those analyzed.
	Seen    uint64
	Sampled uint64
}

// Detector samples the access stream feeding any wrapped shared-data
// analysis. It satisfies the same analysis seam as the detectors it wraps,
// so a sampled analysis is selected and multiplexed like any other.
type Detector struct {
	inner analysis.Analysis
	name  string
	cfg   Config

	pcs   map[isa.PC]*pcState
	clock *stats.Clock

	C Counters
}

// New creates a sampling detector over a fresh FastTrack instance — the
// LiteRace configuration the experiments compare against.
func New(clock *stats.Clock, cfg Config) *Detector {
	return Wrap(fasttrack.New(clock), clock, cfg)
}

// Wrap creates a sampling detector over an arbitrary analysis. The
// wrapped analysis sees the sampled access stream and every
// synchronization event.
func Wrap(inner analysis.Analysis, clock *stats.Clock, cfg Config) *Detector {
	if cfg.InitialBurst == 0 {
		cfg.InitialBurst = 1
	}
	if cfg.MaxPeriod == 0 {
		cfg.MaxPeriod = 1024
	}
	return &Detector{
		inner: inner,
		name:  Kind + ":" + inner.Name(),
		cfg:   cfg,
		pcs:   make(map[isa.PC]*pcState),
		clock: clock,
	}
}

// Inner returns the wrapped analysis.
func (d *Detector) Inner() analysis.Analysis { return d.inner }

// Name implements analysis.Analysis ("sampled:<inner>").
func (d *Detector) Name() string { return d.name }

// SampleRate reports the fraction of offered accesses actually analyzed.
func (d *Detector) SampleRate() float64 {
	if d.C.Seen == 0 {
		return 0
	}
	return float64(d.C.Sampled) / float64(d.C.Seen)
}

// Races returns the wrapped detector's races when the inner analysis is
// FastTrack (the default configuration), nil otherwise.
func (d *Detector) Races() []fasttrack.Race {
	if ft, ok := d.inner.(*fasttrack.Detector); ok {
		return ft.Races()
	}
	return nil
}

// OnAccess samples the access according to the PC's adaptive state.
func (d *Detector) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.C.Seen++
	// The sampling check itself is nearly free (a counter decrement in
	// the instrumented code).
	d.clock.Charge(stats.SharedCheck)

	st := d.pcs[pc]
	if st == nil {
		st = &pcState{period: 1, next: 0}
		d.pcs[pc] = st
	}
	sample := false
	if st.execs < d.cfg.InitialBurst {
		sample = true
	} else if st.execs >= st.next {
		sample = true
		// Geometric backoff: double the period up to the cap.
		if st.period < d.cfg.MaxPeriod {
			st.period *= 2
		}
		st.next = st.execs + st.period
	}
	st.execs++
	if sample {
		d.C.Sampled++
		d.inner.OnAccess(tid, pc, addr, size, write)
	}
}

// OnSharedAccess adapts to the sharing.Analysis seam.
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}

// Synchronization is never sampled away: the wrapped analysis's
// synchronization state must stay sound (LiteRace does the same).

// OnAcquire forwards to the wrapped analysis.
func (d *Detector) OnAcquire(tid guest.TID, lock int64) { d.inner.OnAcquire(tid, lock) }

// OnRelease forwards to the wrapped analysis.
func (d *Detector) OnRelease(tid guest.TID, lock int64) { d.inner.OnRelease(tid, lock) }

// OnFork forwards to the wrapped analysis.
func (d *Detector) OnFork(parent, child guest.TID) { d.inner.OnFork(parent, child) }

// OnJoin forwards to the wrapped analysis.
func (d *Detector) OnJoin(joiner, child guest.TID) { d.inner.OnJoin(joiner, child) }

// OnExit forwards to the wrapped analysis.
func (d *Detector) OnExit(tid guest.TID) { d.inner.OnExit(tid) }

// OnBarrierWait forwards to the wrapped analysis.
func (d *Detector) OnBarrierWait(tid guest.TID, id int64) { d.inner.OnBarrierWait(tid, id) }

// OnBarrierRelease forwards to the wrapped analysis.
func (d *Detector) OnBarrierRelease(tid guest.TID, id int64) { d.inner.OnBarrierRelease(tid, id) }

// AddThread forwards to the wrapped analysis.
func (d *Detector) AddThread(delta int) { d.inner.AddThread(delta) }

// SetMaxFindings forwards to the wrapped analysis.
func (d *Detector) SetMaxFindings(n int) { d.inner.SetMaxFindings(n) }

// Report implements analysis.Analysis: the wrapped analysis's findings
// plus the sampling counters that qualify them (a sampled analysis's
// findings are a subset of what the unsampled analysis would report).
func (d *Detector) Report() analysis.Findings {
	return &Findings{Name: d.name, Counters: d.C, Inner: d.inner.Report()}
}

// Findings wraps the inner analysis's findings with the sampling rate.
type Findings struct {
	Name     string
	Counters Counters
	Inner    analysis.Findings
}

// Analysis implements analysis.Findings.
func (f *Findings) Analysis() string { return f.Name }

// InnerFindings implements analysis.WrappedFindings, so consumers can
// reach the wrapped analysis's typed findings through analysis.Unwrap
// without importing this package.
func (f *Findings) InnerFindings() analysis.Findings { return f.Inner }

// Len implements analysis.Findings.
func (f *Findings) Len() int { return f.Inner.Len() }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string { return f.Inner.Strings() }

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	rate := 0.0
	if f.Counters.Seen > 0 {
		rate = float64(f.Counters.Sampled) / float64(f.Counters.Seen)
	}
	return fmt.Sprintf("sampled=%d of %d (%.2f%%) %s",
		f.Counters.Sampled, f.Counters.Seen, 100*rate, f.Inner.Summary())
}
