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
//     bars);
//   - ModeAikidoProfile: AikidoSD alone as a sharing profiler (no
//     analysis), demonstrating that Aikido hosts other shared-data
//     analyses.
package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/dbi"
	"repro/internal/fasttrack"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/mirror"
	"repro/internal/pagetable"
	"repro/internal/provider"
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
	_ "repro/internal/sampler"
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
	ModeAikidoProfile
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
	case ModeAikidoProfile:
		return "Aikido-profile"
	}
	return "mode?"
}

// DefaultAnalyses is the analysis selection used when Config.Analyses is
// nil: the paper's FastTrack configuration.
var DefaultAnalyses = []string{"fasttrack"}

// Config parameterizes a System.
type Config struct {
	Mode Mode
	// Analyses names the shared-data analyses to run, resolved through
	// the analysis registry ("fasttrack", "lockset", "atomicity",
	// "commgraph", "sampled:<name>", "taint", "memcheck", "spbags", plus
	// short aliases like "ft"). Multiple names multiplex onto one
	// instrumented execution. nil selects DefaultAnalyses; an empty
	// non-nil slice runs no analysis at all (instrumentation without a
	// client — the cost floor the mux-equivalence tests subtract).
	Analyses []string
	Costs    stats.CostModel
	Engine   dbi.Config

	// Paging selects AikidoVM's memory-virtualization strategy (§3.2.2):
	// shadow paging (the paper's prototype, the default) or nested paging
	// (the paper's "generally applicable" claim, with per-thread EPT
	// permission views and the mirror-alias registration it requires).
	Paging hypervisor.PagingMode
	// Switch selects how AikidoVM intercepts guest context switches
	// (§3.2.3): kernel hypercall (default), FS/GS-write trap, or
	// trampoline probe.
	Switch hypervisor.SwitchInterception
	// Provider selects the per-thread page-protection mechanism (§7.1):
	// the AikidoVM hypervisor (default), the dOS-style modified kernel,
	// or the DTHREADS-style processes-as-threads runtime. The analysis
	// results are identical across providers; the costs and transparency
	// are not.
	Provider provider.Kind

	// MaxFindings caps stored findings — races, warnings, violations,
	// flows — uniformly for the whole run (0 = each detector's default):
	// the budget is divided across the selected analyses in configuration
	// order, so "-analysis a,b" with a cap of N stores at most N findings
	// in total, not N per analysis. (It used to be forwarded whole to
	// every member, so multi-analysis runs silently stored members×N.)
	MaxFindings int

	// NoMirror is an ablation: instead of redirecting shared accesses to
	// mirror pages, AikidoSD unprotects the page around every shared
	// access and reprotects it afterwards (the strategy mirror pages
	// exist to avoid; §3.3.2 and the Abadi et al. comparison in §7.2).
	NoMirror bool

	// Epoch enables epoch-based re-privatization of Shared pages in the
	// Aikido modes: pages dominated by one thread (or untouched) for
	// consecutive epochs are demoted back to Private(owner)/Unused, their
	// protections re-armed through the provider and their instrumented
	// instructions flushed, so effectively-private data returns to
	// native-speed execution. The zero value keeps the paper's terminal
	// Shared state machine. See sharing.EpochPolicy and
	// sharing.DefaultEpochPolicy.
	Epoch sharing.EpochPolicy

	// MaxCycles caps the run's simulated cycles: a run whose clock
	// exceeds it at a scheduling-quantum boundary aborts with a typed
	// *BudgetError. The check sits on the engine's existing quantum seam
	// and only reads the clock, so it is deterministic and, when 0
	// (unlimited), entirely absent — calibrated baselines never see it.
	MaxCycles uint64
	// MaxWall caps the run's real (wall-clock) time, checked on the same
	// quantum seam; exceeding it aborts with a typed *BudgetError. Wall
	// time is inherently nondeterministic — deterministic byte-identity
	// suites must leave it 0. The runner's Options.CellDeadline fills
	// this per cell when unset.
	MaxWall time.Duration
	// Chaos is the deterministic fault-injection plan (nil = none). The
	// plan is immutable and shared across cells; each System builds its
	// own injector, so trigger state never leaks between runs. See
	// internal/faultinject and chaos.go for the seams.
	Chaos *faultinject.Plan
}

// DefaultConfig returns the standard configuration for a mode.
func DefaultConfig(m Mode) Config {
	return Config{Mode: m, Costs: stats.DefaultCosts(), Engine: dbi.DefaultConfig()}
}

// WithAnalyses returns a copy of the config selecting the named analyses.
func (c Config) WithAnalyses(names ...string) Config {
	c.Analyses = names
	return c
}

// System is one assembled simulation.
type System struct {
	Cfg     Config
	Machine *vm.Machine
	Process *guest.Process
	Clock   *stats.Clock
	Engine  *dbi.Engine

	HV     *hypervisor.Hypervisor // nil unless Aikido mode with the AikidoVM provider
	Prov   provider.Interface     // nil unless Aikido mode
	Um     *umbra.Umbra           // nil in native/dbi modes
	Mir    *mirror.Manager        // nil unless Aikido mode
	SD     *sharing.Detector      // nil unless Aikido mode
	Epochs *EpochClock            // nil unless Config.Epoch is enabled

	// Analyses are the active analyses in configuration order (empty in
	// native/dbi/profile modes). Callers needing a concrete detector's
	// extended surface (equivalence tests, taint source/sink setup)
	// type-assert the members.
	Analyses []analysis.Analysis

	// an is the dispatch stack over Analyses (nil when none run): the mux,
	// wrapped by the chaos analysis seam when a plan is armed.
	an analysis.Analysis

	// inj is this run's fault injector (nil without a chaos plan) and
	// wallStart the MaxWall anchor, stamped when Run starts executing.
	inj       *faultinject.Injector
	wallStart time.Time
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
// is attached (factories may require Env.Umbra). The findings cap is
// applied through the mux so its per-run budget division governs
// multi-analysis selections.
func (s *System) newAnalyses() (analysis.Analysis, error) {
	names := s.Cfg.Analyses
	if names == nil {
		names = DefaultAnalyses
	}
	if len(names) == 0 {
		return nil, nil
	}
	env := analysis.Env{Clock: s.Clock, Costs: s.Cfg.Costs, Process: s.Process, Umbra: s.Um}
	as, err := analysis.NewAll(names, env)
	if err != nil {
		return nil, err
	}
	s.Analyses = as
	m := analysis.NewMux(as...)
	if max := s.Cfg.MaxFindings; max != 0 {
		m.SetMaxFindings(max)
	}
	if s.inj != nil {
		// The chaos analysis seam observes the access stream exactly as
		// the instrumented hot paths emit it.
		return &chaosAnalysis{Analysis: m, inj: s.inj}, nil
	}
	return m, nil
}

// NewSystem loads prog and assembles the configured stack.
func NewSystem(prog *isa.Program, cfg Config) (*System, error) {
	m := vm.NewMachine()
	p, err := guest.NewProcess(m, prog)
	if err != nil {
		return nil, err
	}
	clock := &stats.Clock{}
	s := &System{Cfg: cfg, Machine: m, Process: p, Clock: clock}
	// One injector per System: the chaos plan is immutable and shared,
	// the trigger state is this run's own. Stall faults charge the
	// simulated clock, so a budgeted run surfaces them as *BudgetError.
	s.inj = cfg.Chaos.NewInjector(clock.Charge)

	switch cfg.Mode {
	case ModeNative:
		ecfg := cfg.Engine
		ecfg.ChargeDBI = false
		s.Engine = dbi.New(p, nil, nil, clock, cfg.Costs, ecfg)

	case ModeDBI:
		s.Engine = dbi.New(p, nil, nil, clock, cfg.Costs, cfg.Engine)

	case ModeFastTrackFull:
		s.Um = umbra.Attach(p, clock, cfg.Costs)
		if s.an, err = s.newAnalyses(); err != nil {
			return nil, err
		}
		tool := &fullTool{um: s.Um, an: s.an}
		s.Engine = dbi.New(p, nil, tool, clock, cfg.Costs, cfg.Engine)

	case ModeAikidoFastTrack, ModeAikidoProfile:
		switch cfg.Provider {
		case provider.DOS:
			s.Prov = provider.NewDOS(p, clock, cfg.Costs)
		case provider.Dthreads:
			s.Prov = provider.NewDthreads(p, clock, cfg.Costs)
		default:
			if cfg.Paging == hypervisor.NestedPaging {
				s.HV = hypervisor.NewNested(m, p.PT)
			} else {
				s.HV = hypervisor.New(m, p.PT)
			}
			s.HV.SetSwitchInterception(cfg.Switch)
			s.Prov = provider.NewAikidoVM(p, s.HV, clock, cfg.Costs)
		}
		if s.inj != nil {
			s.Prov = &chaosProvider{Interface: s.Prov, inj: s.inj}
		}
		p.SetBus(&kernelBus{prov: s.Prov})
		s.Um = umbra.Attach(p, clock, cfg.Costs)
		s.Mir = mirror.Attach(p)
		var client sharing.Analysis
		if cfg.Mode == ModeAikidoFastTrack {
			if s.an, err = s.newAnalyses(); err != nil {
				return nil, err
			}
			if s.an != nil {
				client = s.an
			}
		}
		s.SD = sharing.Attach(p, s.Prov, s.Um, s.Mir, client, clock, cfg.Costs)
		if cfg.NoMirror {
			s.SD.DisableMirror()
		}
		s.Engine = dbi.New(p, s.Prov, s.SD, clock, cfg.Costs, cfg.Engine)
		s.SD.SetEngine(s.Engine)
		s.Engine.OnFault = s.SD.HandleFault
		s.Engine.RuntimeTouch = s.SD.TouchCode
		if cfg.Epoch.Enabled() {
			s.SD.EnableEpochs(cfg.Epoch)
			s.Epochs = newEpochClock(clock, cfg.Epoch.Interval, s.SD.EpochSweep)
			s.SD.SetEpochTicker(s.Epochs.MaybeTick)
		}

	default:
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
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

// analysisWrapper is the surface wrapper analyses (the sampler) expose so
// optional interfaces of the wrapped analysis stay reachable.
type analysisWrapper interface {
	Inner() analysis.Analysis
}

// asRetireObserver unwraps a (possibly wrapped) analysis down to a retire
// observer. Register dataflow is never sampled away — like
// synchronization, it must stay sound for the wrapped analysis's state to
// mean anything — so the observer is the innermost analysis itself.
func asRetireObserver(a analysis.Analysis) (retireObserver, bool) {
	for {
		if ro, ok := a.(retireObserver); ok {
			return ro, true
		}
		w, ok := a.(analysisWrapper)
		if !ok {
			return nil, false
		}
		a = w.Inner()
	}
}

// wireHooks connects guest events to the hypervisor (context switches) and
// the analyses (synchronization happens-before edges), charging their
// costs.
func (s *System) wireHooks() {
	p := s.Process
	costs := s.Cfg.Costs
	clock := s.Clock

	p.Hooks.ContextSwitch = func(old, new guest.TID) {
		clock.Charge(costs.ContextSwitch)
		if s.Prov != nil {
			// The provider charges its own switch cost on top of the
			// guest's: the hypervisor's interception VM exit plus
			// translation-view switch (§3.2.3), the dOS root write, or
			// the DTHREADS process switch.
			s.Prov.ContextSwitch(old, new)
		}
	}
	// Live-thread tracking feeds the contention model of both the
	// analysis (metadata lines) and the mirror redirect path. The main
	// thread already exists (its ThreadStarted fired inside NewProcess,
	// before these hooks were installed), so the count starts at 1.
	live := 1
	an := s.an
	if an != nil {
		an.AddThread(1) // the main thread, for the same reason
	}
	p.Hooks.ThreadStarted = func(t *guest.Thread, creator guest.TID) {
		live++
		if s.Prov != nil {
			s.Prov.ThreadStarted(t.ID, creator)
		}
		if an != nil {
			an.AddThread(1)
			if creator != guest.NoTID {
				an.OnFork(creator, t.ID)
			}
		}
	}
	p.Hooks.ThreadExited = func(t *guest.Thread) {
		live--
		if s.Prov != nil {
			s.Prov.ThreadExited(t.ID)
		}
		if an != nil {
			an.OnExit(t.ID)
			an.AddThread(-1)
		}
	}
	if s.Prov != nil {
		p.Hooks.Syscall = func(t *guest.Thread, num int64) {
			s.Prov.OnSyscall(t.ID, num)
		}
	}
	if s.SD != nil {
		s.SD.SetLiveThreads(func() int { return live })
	}
	if an != nil {
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
		if ro, ok := asRetireObserver(a); ok {
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
// FastTrack), with Umbra providing the metadata translation.
type fullTool struct {
	um *umbra.Umbra
	an analysis.Analysis
}

// Instrument implements dbi.Tool.
func (f *fullTool) Instrument(pc isa.PC, in isa.Instr) *dbi.Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return &dbi.Plan{PreAccess: func(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) uint64 {
		f.um.Translate(tid, addr) // metadata mapping, charges cycles
		if f.an != nil {
			f.an.OnAccess(tid, pc, addr, size, write)
		}
		return addr
	}}
}

// kernelBus adapts the protection provider to the guest kernel's memory
// path. The provider resolves kernel accesses to protected pages its own
// way — AikidoVM emulates the access (§3.2.6), the dOS kernel checks its
// ownership table, the DTHREADS shim unprotects around it — and charges the
// cost internally.
type kernelBus struct {
	prov provider.Interface
}

func (b *kernelBus) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *pagetable.Fault) {
	v, fault := b.prov.Load(tid, addr, size, user)
	if fault != nil {
		return 0, &pagetable.Fault{Addr: fault.Addr, Access: fault.Access, Unmapped: fault.Unmapped}
	}
	return v, nil
}

func (b *kernelBus) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *pagetable.Fault {
	fault := b.prov.Store(tid, addr, size, val, user)
	if fault != nil {
		return &pagetable.Fault{Addr: fault.Addr, Access: fault.Access, Unmapped: fault.Unmapped}
	}
	return nil
}

// Result is the outcome of one run with every layer's statistics.
type Result struct {
	Mode     Mode
	Cycles   uint64
	ExitCode int64
	Console  string

	Engine dbi.Counters
	HV     hypervisor.Stats
	Prov   provider.Stats
	Umbra  umbra.Stats
	SD     sharing.Counters

	// Findings maps each selected analysis's canonical name to its
	// findings. Typed detail (races with PCs, lockset warnings, …) is
	// recovered by asserting to the producing package's findings type,
	// or through that package's helpers (fasttrack.RacesIn and the like).
	Findings map[string]analysis.Findings

	GuestContextSwitches uint64
	GuestSyscalls        uint64

	// EpochTicks counts epoch boundaries fired by the re-privatization
	// clock (0 when Config.Epoch is disabled; demotion detail lives in
	// SD.EpochSweeps / SD.PagesDemoted* / SD.PagesReshared).
	EpochTicks uint64
}

// Run executes the assembled system to completion.
func (s *System) Run() (*Result, error) {
	if s.Cfg.MaxWall > 0 {
		// Anchor the wall budget at execution start, not assembly time.
		s.wallStart = time.Now() //detlint:ok wall budget anchor; only read by the MaxWall safety check
	}
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
	if s.Prov != nil {
		r.Prov = s.Prov.Overhead()
	}
	if s.Um != nil {
		r.Umbra = s.Um.Stats
	}
	if s.SD != nil {
		r.SD = s.SD.C
	}
	if s.Epochs != nil {
		r.EpochTicks = s.Epochs.Ticks
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

// TallyCounters implements stats.RunCounters, exposing the aggregate
// counters the concurrent runner's per-worker tallies sum over.
func (r *Result) TallyCounters() (cycles, instructions, memRefs, instrumented, shared, races uint64) {
	return r.Cycles, r.Engine.Instructions, r.Engine.MemRefs,
		r.Engine.InstrumentedExecs, r.SD.SharedPageAccesses, uint64(len(fasttrack.RacesIn(r.Findings)))
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
