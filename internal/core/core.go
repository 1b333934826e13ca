// Package core assembles the complete Aikido system (paper Figure 1): the
// AikidoVM hypervisor at the bottom, the guest process above it, the
// DynamoRIO-model DBI engine with the AikidoSD sharing detector as its
// tool, Umbra shadow memory, mirror pages, and any number of pluggable
// shared-data analyses drawn from the analysis registry (FastTrack by
// default).
//
// Analyses are selected by name (Config.Analyses) and fan out through one
// multiplexed dispatch path: a single DBI+sharing pass hosts FastTrack,
// LockSet, the atomicity checker and the communication-graph profiler
// simultaneously, amortizing the instrumented execution over every
// analysis — the framework claim of the paper's §1.1 and §7 made
// operational. core itself knows no detector by name: detector packages
// register themselves with internal/analysis, and results come back as a
// name-keyed findings map.
//
// The same entry point runs the paper's comparison configurations:
//
//   - ModeNative: plain execution, no DBI, no analysis — the normalization
//     baseline of Figure 5;
//   - ModeDBI: DynamoRIO-only overhead (no tool);
//   - ModeFastTrackFull: the selected analyses instrumenting every memory
//     access (the paper's "FastTrack" bars under the default selection);
//   - ModeAikidoFastTrack: the full Aikido stack (the "Aikido-FastTrack"
//     bars); with no analysis selected it is AikidoSD alone, a sharing
//     profiler, which shows that Aikido hosts other shared-data analyses.
package core

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/sharing"
	"repro/internal/stats"
	"repro/internal/umbra"
	"repro/internal/vm"

	// The in-tree detectors register themselves with the analysis
	// registry in init(); importing them here makes every registered
	// analysis available to any System. New detectors land by adding a
	// package and an import — no enum case, no switch.
	_ "repro/internal/atomicity"
	_ "repro/internal/commgraph"
	_ "repro/internal/lockset"
	_ "repro/internal/memcheck"
	_ "repro/internal/spbags"
	_ "repro/internal/taint"
)

// Mode selects the system configuration.
type Mode uint8

// Modes.
const (
	ModeNative Mode = iota
	ModeDBI
	ModeFastTrackFull
	ModeAikidoFastTrack
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeDBI:
		return "dbi"
	case ModeFastTrackFull:
		return "FastTrack"
	case ModeAikidoFastTrack:
		return "Aikido-FastTrack"
	}
	return "mode?"
}

// Config parameterizes a System. Check rejects a config that sets a field
// its mode would ignore.
type Config struct {
	Mode Mode
	// Analyses names the shared-data analyses to run, resolved through
	// the analysis registry ("fasttrack", "lockset", "atomicity",
	// "commgraph", "taint", "memcheck", "spbags", plus short aliases like
	// "ft"). Multiple names multiplex onto one instrumented execution; a
	// selection that includes "spbags" runs the guest under the serial
	// depth-first schedule, which every member then observes. Check
	// rejects an unknown name and one analysis named twice. nil and
	// empty both run no analysis (instrumentation without a client, the
	// cost floor the mux-equivalence tests subtract; under Aikido,
	// AikidoSD alone profiles sharing). DefaultConfig selects FastTrack
	// in the two analysis modes.
	Analyses []string

	// Quantum is the scheduling quantum in retired instructions. A zero
	// quantum would retire nothing, and no budget would stop the run.
	Quantum uint64

	// Aikido holds the settings only ModeAikidoFastTrack reads.
	Aikido AikidoConfig

	// MaxCycles caps the run's simulated cycles: a run whose clock
	// exceeds it at a scheduling-quantum boundary aborts with a typed
	// *BudgetError. The check sits on the engine's existing quantum seam
	// and only reads the clock, so it is deterministic and, when 0
	// (unlimited), entirely absent — calibrated baselines never see it.
	MaxCycles uint64
}

// AikidoConfig configures the Aikido stack's AikidoSD options. AikidoVM
// has none: it is the paper's prototype, shadow paging with context
// switches reported by a guest-kernel hypercall.
type AikidoConfig struct {
	// Epoch is the epoch-based re-privatization of Shared pages: pages
	// dominated by one thread (or untouched) for consecutive epochs are
	// demoted back to Private(owner)/Unused, their protections re-armed
	// through AikidoLib and their instrumented instructions flushed,
	// so effectively-private data returns to native-speed execution.
	// DefaultConfig sets sharing.DefaultEpochPolicy; the zero value is
	// the paper's Figure 3 machine, where Shared is terminal. See
	// sharing.EpochPolicy.
	Epoch sharing.EpochPolicy
}

// DefaultConfig returns the standard configuration for a mode: the
// engine's default quantum, FastTrack in the two analysis modes, and
// epoch demotion on in ModeAikidoFastTrack.
func DefaultConfig(m Mode) Config {
	c := Config{Mode: m, Quantum: dbi.DefaultConfig().Quantum}
	switch m {
	case ModeFastTrackFull:
		c.Analyses = []string{"fasttrack"}
	case ModeAikidoFastTrack:
		c.Analyses = []string{"fasttrack"}
		c.Aikido.Epoch = sharing.DefaultEpochPolicy()
	}
	return c
}

// WithAnalyses returns a copy of the config selecting the named analyses;
// with no names it selects none.
func (c Config) WithAnalyses(names ...string) Config {
	c.Analyses = names
	return c
}

// Check reports the first setting of c that is invalid or that the
// selected mode would ignore. Each error names the Config field.
func (c Config) Check() error {
	if c.Mode > ModeAikidoFastTrack {
		return fmt.Errorf("core: Config.Mode: unknown mode %d", c.Mode)
	}
	if c.Quantum == 0 {
		return errors.New("core: Config.Quantum: 0 retires no instruction (want > 0)")
	}
	if (c.Mode == ModeNative || c.Mode == ModeDBI) && len(c.Analyses) > 0 {
		return fmt.Errorf("core: Config.Analyses: %v, but mode %s runs no analysis", c.Analyses, c.Mode)
	}
	if err := analysis.Check(c.Analyses); err != nil {
		return fmt.Errorf("core: Config.Analyses: %w", err)
	}
	if c.Mode != ModeAikidoFastTrack && c.Aikido != (AikidoConfig{}) {
		return fmt.Errorf("core: Config.Aikido: set, but mode %s builds no Aikido stack", c.Mode)
	}
	return nil
}

// System is one assembled simulation.
type System struct {
	Cfg     Config
	Machine *vm.Machine
	Process *guest.Process
	Clock   *stats.Clock
	Engine  *dbi.Engine

	HV   *hypervisor.Hypervisor // nil unless Aikido mode
	Prov *hypervisor.Lib        // AikidoLib; nil unless Aikido mode
	Um   *umbra.Umbra           // nil in native/dbi modes
	SD   *sharing.Detector      // nil unless Aikido mode

	// Analyses are the active analyses in configuration order (empty when
	// none is selected). Callers needing a concrete detector's
	// extended surface (equivalence tests, taint source/sink setup)
	// type-assert the members.
	Analyses []analysis.Analysis

	// an is the mux over Analyses (nil when none run).
	an *analysis.Mux
}

// Analysis returns the active analysis registered under the (canonical)
// name, or nil.
func (s *System) Analysis(name string) analysis.Analysis {
	canon := analysis.Resolve(name)
	for _, a := range s.Analyses {
		if a.Name() == canon {
			return a
		}
	}
	return nil
}

// newAnalyses instantiates the configured analyses and the mux that fans
// the instrumented execution out to them. It must run after shadow memory
// is attached (factories may require Env.Umbra).
func (s *System) newAnalyses() (*analysis.Mux, error) {
	if len(s.Cfg.Analyses) == 0 {
		return nil, nil
	}
	env := analysis.Env{Clock: s.Clock, Process: s.Process, Umbra: s.Um}
	as, err := analysis.NewAll(s.Cfg.Analyses, env)
	if err != nil {
		return nil, err
	}
	s.Analyses = as
	return analysis.NewMux(as...), nil
}

// NewSystem checks cfg, loads prog and assembles the configured stack.
func NewSystem(prog *isa.Program, cfg Config) (*System, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	m := vm.NewMachine()
	p, err := guest.NewProcess(m, prog)
	if err != nil {
		return nil, err
	}
	clock := &stats.Clock{}
	s := &System{Cfg: cfg, Machine: m, Process: p, Clock: clock}
	// Native time is pure instruction cost: no code-cache accounting.
	ecfg := dbi.Config{Quantum: cfg.Quantum, ChargeDBI: cfg.Mode != ModeNative}

	switch cfg.Mode {
	case ModeNative, ModeDBI:
		s.Engine = dbi.New(p, nil, nil, clock, ecfg)

	case ModeFastTrackFull:
		s.Um = umbra.Attach(p, clock)
		if s.an, err = s.newAnalyses(); err != nil {
			return nil, err
		}
		tool := newFullTool(s.Um, s.an)
		s.Engine = dbi.New(p, nil, tool, clock, ecfg)

	case ModeAikidoFastTrack:
		s.HV = hypervisor.New(m, p.PT, clock)
		s.Prov = hypervisor.NewLib(p, s.HV)
		s.Um = umbra.Attach(p, clock)
		if s.an, err = s.newAnalyses(); err != nil {
			return nil, err
		}
		// A nil *Mux would be a non-nil sharing.Analysis.
		var an sharing.Analysis
		if s.an != nil {
			an = s.an
		}
		s.SD = sharing.Attach(p, s.Prov, s.Um, an, clock)
		s.Engine = dbi.New(p, s.HV, s.SD, clock, ecfg)
		s.SD.SetEngine(s.Engine)
		s.Engine.OnFault = s.SD.HandleFault
		s.Engine.RuntimeTouch = s.SD.TouchCode
		s.SD.EnableEpochs(cfg.Aikido.Epoch)
	}

	s.wireHooks()
	s.armQuantumCheck()
	return s, nil
}

// retireObserver is the optional surface an analysis implements to watch
// every retired instruction (the taint tracker's register-dataflow half).
// Observers are wired directly, not through the mux: most analyses do not
// want a per-instruction callback, and the common case must stay free.
type retireObserver interface {
	OnRetire(t *guest.Thread, pc isa.PC, in isa.Instr)
}

// wireHooks connects guest events to the hypervisor (context switches) and
// the analyses (synchronization happens-before edges), charging their
// costs.
func (s *System) wireHooks() {
	p := s.Process
	clock := s.Clock

	p.Hooks.ContextSwitch = func(old, new guest.TID) {
		clock.Charge(stats.ContextSwitch)
		if s.HV != nil {
			// The hypervisor charges its own switch cost on top of the
			// guest's: the switch hypercall's VM exit plus the
			// shadow-root swap (§3.2.3).
			s.HV.ContextSwitch()
		}
	}
	an := s.an
	if an != nil {
		// Live-thread tracking feeds the analyses' metadata-contention
		// model. The main thread already exists (its ThreadStarted fired
		// inside NewProcess, before these hooks were installed), so it is
		// counted here.
		an.AddThread(1)
		p.Hooks.ThreadStarted = func(t *guest.Thread, creator guest.TID) {
			an.AddThread(1)
			if creator != guest.NoTID {
				an.OnFork(creator, t.ID)
			}
		}
		p.Hooks.ThreadExited = func(t *guest.Thread) {
			an.OnExit(t.ID)
			an.AddThread(-1)
		}
		p.Hooks.LockAcquired = func(t *guest.Thread, l int64) { an.OnAcquire(t.ID, l) }
		p.Hooks.LockReleased = func(t *guest.Thread, l int64) { an.OnRelease(t.ID, l) }
		p.Hooks.ThreadJoined = func(joiner guest.TID, child *guest.Thread) {
			an.OnJoin(joiner, child.ID)
		}
		p.Hooks.BarrierWait = func(t *guest.Thread, id int64) { an.OnBarrierWait(t.ID, id) }
		p.Hooks.BarrierRelease = func(t *guest.Thread, id int64) { an.OnBarrierRelease(t.ID, id) }
	}
	// Wire retire observers (taint's register half) without taxing the
	// common case: the engine hook is installed only when some analysis
	// asks for it.
	var observers []retireObserver
	for _, a := range s.Analyses {
		if ro, ok := a.(retireObserver); ok {
			observers = append(observers, ro)
		}
	}
	if len(observers) == 1 {
		s.Engine.OnRetire = observers[0].OnRetire
	} else if len(observers) > 1 {
		s.Engine.OnRetire = func(t *guest.Thread, pc isa.PC, in isa.Instr) {
			for _, ro := range observers {
				ro.OnRetire(t, pc, in)
			}
		}
	}
}

// fullTool is the conservative baseline: analysis instrumentation on every
// memory access (the paper's "FastTrack" configuration when the analysis is
// FastTrack), with Umbra providing the metadata translation. Every memory
// instruction shares its one plan.
type fullTool struct {
	plan *dbi.Plan
}

func newFullTool(um *umbra.Umbra, an *analysis.Mux) *fullTool {
	return &fullTool{plan: &dbi.Plan{PreAccess: func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
		um.Translate(tid, addr) // metadata mapping, charges cycles
		if an != nil {
			an.OnAccess(tid, pc, addr, size, write)
		}
		return addr
	}}}
}

// Instrument implements dbi.Tool.
func (f *fullTool) Instrument(pc isa.PC, in isa.Instr) *dbi.Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return f.plan
}

// Result is the outcome of one run with every layer's statistics.
type Result struct {
	Mode     Mode
	Cycles   uint64
	ExitCode int64
	Console  string

	Engine dbi.Counters
	HV     hypervisor.Stats
	Umbra  umbra.Stats
	SD     sharing.Counters

	// Findings maps each selected analysis's canonical name to its
	// findings. Typed detail (races with PCs, lockset warnings, …) is
	// recovered by asserting to the producing package's findings type,
	// or through that package's helpers (fasttrack.RacesIn and the like).
	Findings map[string]analysis.Findings

	GuestContextSwitches uint64
	GuestSyscalls        uint64
}

// Run executes the assembled system to completion.
func (s *System) Run() (*Result, error) {
	eres, err := s.Engine.Run()
	if err != nil {
		return nil, err
	}
	r := &Result{
		Mode:                 s.Cfg.Mode,
		Cycles:               eres.Cycles,
		ExitCode:             eres.ExitCode,
		Console:              eres.Console,
		Engine:               eres.Counters,
		GuestContextSwitches: s.Process.ContextSwitches,
		GuestSyscalls:        s.Process.SyscallCount,
	}
	if s.HV != nil {
		r.HV = s.HV.Stats
	}
	if s.Um != nil {
		r.Umbra = s.Um.Stats
	}
	if s.SD != nil {
		r.SD = s.SD.C
	}
	if len(s.Analyses) > 0 {
		r.Findings = make(map[string]analysis.Findings, len(s.Analyses))
		for _, a := range s.Analyses {
			r.Findings[a.Name()] = a.Report()
		}
	}
	return r, nil
}

// Run is the one-shot convenience: assemble and execute prog under cfg.
func Run(prog *isa.Program, cfg Config) (*Result, error) {
	s, err := NewSystem(prog, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// SharedAccessFraction is Figure 6's metric: the fraction of all memory-
// referencing instruction executions that targeted shared pages.
func (r *Result) SharedAccessFraction() float64 {
	if r.Engine.MemRefs == 0 {
		return 0
	}
	return float64(r.SD.SharedPageAccesses) / float64(r.Engine.MemRefs)
}

// Slowdown computes r's slowdown relative to a baseline (native) run.
func (r *Result) Slowdown(native *Result) float64 {
	return stats.Ratio(r.Cycles, native.Cycles)
}
