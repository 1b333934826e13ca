package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
)

// The tracer times every call into a layer from outside, through the
// public seams of an assembled core.System: the engine's Tool (and the
// PreAccess of each Plan it returns), Mem and OnFault, the guest process's
// hooks, and the "timed:<name>" analysis wrapper. Each call reads both the
// host clock and the simulated clock, so a layer gets host ns and exact
// simulated cycles. Nothing under internal/ is edited; the traced run's
// Result must still equal the untraced one, which the caller checks.

// Layer names. "dbi" is the engine's own time: System.Run minus every
// wrapped call beneath it.
const (
	layerDBI        = "dbi"
	layerInstrument = "dbi.instrument"
	layerMem        = "provider.mem"
	layerFault      = "sharing.fault"
	layerSwitch     = "provider.switch"
	layerSync       = "analysis.sync"
	// The Plan.PreAccess layer is the sharing detector in the Aikido
	// modes and the full-instrumentation tool (Umbra translate plus the
	// analysis fan-out) in FastTrack-full mode.
	layerSharingPre = "sharing.pre_access"
	layerUmbraPre   = "umbra.pre_access"
)

// maxSpans bounds the Chrome trace; spans past it are counted, not kept.
const maxSpans = 1 << 16

// layerStats aggregates the calls into one layer. selfNs is host time
// minus the wrapped calls made beneath it; cycles is the simulated clock
// delta across each call, children included.
type layerStats struct {
	calls  uint64
	selfNs int64
	cycles uint64
}

// span is one coarse Chrome trace event.
type span struct {
	name       string
	start, dur int64 // ns since process start
	args       map[string]string
}

// tracer accumulates per-layer statistics over every traced pass. It is
// used from the simulator's one thread only.
type tracer struct {
	clock *stats.Clock   // the clock of the system being traced
	index map[string]int // layer name → index into stats
	stats []layerStats
	// open holds, for each call in progress, the host ns its wrapped
	// children have taken so far.
	open    []int64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{index: map[string]int{}} }

// layer returns the id of the named layer, adding it on first use.
func (t *tracer) layer(name string) int {
	if id, ok := t.index[name]; ok {
		return id
	}
	t.index[name] = len(t.stats)
	t.stats = append(t.stats, layerStats{})
	return len(t.stats) - 1
}

// get returns the named layer's totals (zero for an unknown layer).
func (t *tracer) get(name string) layerStats {
	if id, ok := t.index[name]; ok {
		return t.stats[id]
	}
	return layerStats{}
}

// enter opens a call and returns its start host time and cycle count.
func (t *tracer) enter() (int64, uint64) {
	t.open = append(t.open, 0)
	return now(), t.clock.Cycles()
}

// exit closes the innermost open call as a call into layer id and
// returns its end host time.
func (t *tracer) exit(id int, start int64, cycles uint64) int64 {
	end := now()
	d := end - start
	n := len(t.open) - 1
	st := &t.stats[id]
	st.calls++
	st.selfNs += d - t.open[n]
	st.cycles += t.clock.Cycles() - cycles
	t.open = t.open[:n]
	if n > 0 {
		t.open[n-1] += d
	}
	return end
}

// span records a coarse span, or counts it as dropped past maxSpans.
func (t *tracer) span(name string, start, end int64, args map[string]string) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, dur: end - start, args: args})
}

// spanned wraps f as a call into layer id that is also a Chrome span.
func (t *tracer) spanned(id int, name string, f func()) {
	s, c := t.enter()
	f()
	t.span(name, s, t.exit(id, s, c), nil)
}

// install wraps the public seams of an assembled system. The analyses are
// already wrapped: the caller built the system with timed analysis names.
func (t *tracer) install(sys *core.System) {
	t.clock = sys.Clock
	e := sys.Engine
	if e.Tool != nil {
		pre := layerSharingPre
		if sys.Cfg.Mode == core.ModeFastTrackFull {
			pre = layerUmbraPre
		}
		e.Tool = &timedTool{t: t, inner: e.Tool, id: t.layer(layerInstrument), pre: t.layer(pre)}
	}
	if sys.Prov != nil {
		// Outside the Aikido modes Mem is the engine's devirtualized
		// page-table walker, which execMem calls without the interface.
		e.Mem = &timedMem{t: t, inner: e.Mem, id: t.layer(layerMem)}
	}
	if f := e.OnFault; f != nil {
		id := t.layer(layerFault)
		e.OnFault = func(th *guest.Thread, pc isa.PC, in isa.Instr, fault *hypervisor.Fault) (out dbi.FaultOutcome) {
			t.spanned(id, layerFault, func() { out = f(th, pc, in, fault) })
			return out
		}
	}
	h := &sys.Process.Hooks
	if f := h.ContextSwitch; f != nil {
		id := t.layer(layerSwitch)
		h.ContextSwitch = func(old, new guest.TID) {
			t.spanned(id, layerSwitch, func() { f(old, new) })
		}
	}
	sync := t.layer(layerSync)
	timeThreadHook := func(f func(*guest.Thread, int64)) func(*guest.Thread, int64) {
		if f == nil {
			return nil
		}
		return func(th *guest.Thread, v int64) {
			s, c := t.enter()
			f(th, v)
			t.exit(sync, s, c)
		}
	}
	h.LockAcquired = timeThreadHook(h.LockAcquired)
	h.LockReleased = timeThreadHook(h.LockReleased)
	h.BarrierWait = timeThreadHook(h.BarrierWait)
	h.BarrierRelease = timeThreadHook(h.BarrierRelease)
	if f := h.ThreadJoined; f != nil {
		h.ThreadJoined = func(joiner guest.TID, child *guest.Thread) {
			s, c := t.enter()
			f(joiner, child)
			t.exit(sync, s, c)
		}
	}
}

// timedTool times block-build instrumentation and the PreAccess of every
// plan it hands the engine.
type timedTool struct {
	t       *tracer
	inner   dbi.Tool
	id, pre int
}

// Instrument implements dbi.Tool.
func (w *timedTool) Instrument(pc isa.PC, in isa.Instr) *dbi.Plan {
	s, c := w.t.enter()
	p := w.inner.Instrument(pc, in)
	w.t.exit(w.id, s, c)
	if p == nil || p.PreAccess == nil {
		return p
	}
	timed := *p
	pre, t, id := p.PreAccess, w.t, w.pre
	timed.PreAccess = func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
		s, c := t.enter()
		target := pre(tid, pc, addr, size, write)
		t.exit(id, s, c)
		return target
	}
	return &timed
}

// timedMem times the engine's user-mode memory path (the provider).
type timedMem struct {
	t     *tracer
	inner dbi.Memory
	id    int
}

// Load implements dbi.Memory.
func (m *timedMem) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault) {
	s, c := m.t.enter()
	v, f := m.inner.Load(tid, addr, size, user)
	m.t.exit(m.id, s, c)
	return v, f
}

// Store implements dbi.Memory.
func (m *timedMem) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault {
	s, c := m.t.enter()
	f := m.inner.Store(tid, addr, size, val, user)
	m.t.exit(m.id, s, c)
	return f
}

// activeTracer is the tracer the "timed" analysis wrapper attaches to. The
// registry is process-wide, so the traced pass sets it before NewSystem.
var activeTracer *tracer

func init() {
	analysis.RegisterWrapper("timed", "fasttrack",
		func(inner analysis.Analysis, innerName string, env analysis.Env) (analysis.Analysis, error) {
			t := activeTracer
			if t == nil {
				return nil, fmt.Errorf("timed:%s: no active tracer", innerName)
			}
			// Hooks fire inside NewSystem, before install sets the clock.
			t.clock = env.Clock
			return &timedAnalysis{Analysis: inner, t: t, id: t.layer("analysis." + innerName)}, nil
		})
}

// timedNames maps an analysis selection onto its timed wrappers.
func timedNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "timed:" + n
	}
	return out
}

// timedAnalysis times every hook of one analysis. Name, SetMaxFindings
// and Report pass through, so the findings map is keyed as untraced. It
// exposes no optional interface of the inner analysis: a dispatch mode
// that needs one behaves differently under it, which the traced run's
// Result check reports.
type timedAnalysis struct {
	analysis.Analysis
	t  *tracer
	id int
}

func (a *timedAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	s, c := a.t.enter()
	a.Analysis.OnAccess(tid, pc, addr, size, write)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	s, c := a.t.enter()
	a.Analysis.OnSharedAccess(tid, pc, addr, size, write)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnAcquire(tid guest.TID, lock int64) {
	s, c := a.t.enter()
	a.Analysis.OnAcquire(tid, lock)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnRelease(tid guest.TID, lock int64) {
	s, c := a.t.enter()
	a.Analysis.OnRelease(tid, lock)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnFork(parent, child guest.TID) {
	s, c := a.t.enter()
	a.Analysis.OnFork(parent, child)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnJoin(joiner, child guest.TID) {
	s, c := a.t.enter()
	a.Analysis.OnJoin(joiner, child)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnExit(tid guest.TID) {
	s, c := a.t.enter()
	a.Analysis.OnExit(tid)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnBarrierWait(tid guest.TID, id int64) {
	s, c := a.t.enter()
	a.Analysis.OnBarrierWait(tid, id)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) OnBarrierRelease(tid guest.TID, id int64) {
	s, c := a.t.enter()
	a.Analysis.OnBarrierRelease(tid, id)
	a.t.exit(a.id, s, c)
}

func (a *timedAnalysis) AddThread(delta int) {
	s, c := a.t.enter()
	a.Analysis.AddThread(delta)
	a.t.exit(a.id, s, c)
}

// chromeEvent is one Chrome trace-event ("X" complete event, µs units).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the recorded spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open. Events are sorted by start, parents
// before the children they contain.
func (t *tracer) writeChrome(path string, meta map[string]string) error {
	sp := append([]span(nil), t.spans...)
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].start != sp[j].start {
			return sp[i].start < sp[j].start
		}
		return sp[i].dur > sp[j].dur
	})
	ev := make([]chromeEvent, len(sp))
	for i, s := range sp {
		ev[i] = chromeEvent{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3, PID: 1, TID: 1, Args: s.args}
	}
	other := map[string]any{"dropped_spans": t.dropped}
	for k, v := range meta {
		other[k] = v
	}
	b, err := json.Marshal(map[string]any{"traceEvents": ev, "otherData": other})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
