package stm

import (
	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/mirror"
	"repro/internal/pagetable"
	"repro/internal/provider"
	"repro/internal/stats"
	"repro/internal/vm"
)

// scratchBase places the doomed-transaction scratch page in the runtime
// area, away from every application region.
const scratchBase uint64 = 0x0000_5900_0000_0000

// System is one assembled STM stack: guest process, hypervisor (for page
// protection and fault delivery), mirror manager, DBI engine with the STM
// barriers, and the runtime itself.
type System struct {
	Rt     *Runtime
	Engine *dbi.Engine
	P      *guest.Process
	Clock  *stats.Clock
}

// Config parameterizes New.
type Config struct {
	// Strong enables the page-protection strong-atomicity machinery
	// (default in NewStrong); off, the runtime is a weakly atomic
	// undo-log STM.
	Strong bool
	// PatchThreshold is the per-PC fault count that triggers patching
	// the instruction to its transaction-aware form; 0 disables patching.
	PatchThreshold int
	// Quantum is the scheduling quantum in retired instructions (0 = the
	// engine default).
	Quantum uint64
}

// New assembles an STM system for prog. The managed region is the
// program's static data segment (the stand-in for the C# heap §7.2
// manages).
func New(prog *isa.Program, cfg Config) (*System, error) {
	m := vm.NewMachine()
	p, err := guest.NewProcess(m, prog)
	if err != nil {
		return nil, err
	}
	clock := &stats.Clock{}
	hv := hypervisor.New(m, p.PT, clock)
	prov := provider.NewAikidoVM(p, hv, clock)
	mir := mirror.Attach(p)

	dataPages := (prog.DataSize + vm.PageSize - 1) / vm.PageSize
	if dataPages == 0 {
		dataPages = 1
	}
	rt := &Runtime{
		p:              p,
		lib:            hv.Lib(),
		prov:           prov,
		mir:            mir,
		clock:          clock,
		Strong:         cfg.Strong,
		PatchThreshold: cfg.PatchThreshold,
		regionBase:     isa.DataBase,
		regionEnd:      isa.DataBase + dataPages*vm.PageSize,
		tx:             make(map[guest.TID]*txState),
		pages:          make(map[uint64]*pageMeta),
		faultsAt:       make(map[isa.PC]int),
		txAware:        make(map[isa.PC]bool),
	}
	scratch := p.MapRuntime(scratchBase, 1, pagetable.ProtRW, "stm-scratch")
	rt.scratch = scratch.Base

	p.Hooks.TxBegin = rt.TxBegin
	p.Hooks.TxEnd = rt.TxEnd
	// Kernel reads of transaction-protected pages are emulated (§3.2.6)
	// rather than crashing the write syscall.
	p.SetBus(provider.KernelBus(prov))

	ecfg := dbi.DefaultConfig()
	if cfg.Quantum != 0 {
		ecfg.Quantum = cfg.Quantum
	}
	eng := dbi.New(p, prov, barrierTool{rt}, clock, ecfg)
	eng.OnFault = rt.HandleFault
	return &System{Rt: rt, Engine: eng, P: p, Clock: clock}, nil
}

// Result is the outcome of one STM run.
type Result struct {
	ExitCode int64
	Console  string
	Cycles   uint64
	C        Counters
}

// Run executes the system to completion.
func (s *System) Run() (*Result, error) {
	res, err := s.Engine.Run()
	if err != nil {
		return nil, err
	}
	return &Result{
		ExitCode: res.ExitCode,
		Console:  res.Console,
		Cycles:   res.Cycles,
		C:        s.Rt.C,
	}, nil
}

// barrierTool attaches the STM barrier to every memory access. Abadi's
// system compiles barriers only into transactional code; attaching them
// everywhere and branching on the in-transaction flag models the same
// behaviour on a binary substrate (non-transactional accesses take the
// flag-check fast path and run on primary addresses).
type barrierTool struct{ rt *Runtime }

// Instrument implements dbi.Tool.
func (b barrierTool) Instrument(pc isa.PC, in isa.Instr) *dbi.Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return &dbi.Plan{PreAccess: b.rt.PreAccess}
}
