package taint

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Kind is the tracker's registry name.
const Kind = "taint"

func init() {
	analysis.Register(Kind, func(env analysis.Env) (analysis.Analysis, error) {
		if env.Umbra == nil || env.Process == nil {
			return nil, errors.New("taint: requires a process with shadow memory (set Env.Process and Env.Umbra)")
		}
		return New(env.Process, env.Umbra, env.Clock), nil
	})
}

// Name implements analysis.Analysis.
func (t *Tracker) Name() string { return Kind }

// OnAccess implements analysis.Analysis: the memory half of the
// propagation, driven by the hosting system's access stream. The
// instruction's register operands are recovered from the program by PC
// (PCs are dense instruction indices). Under full instrumentation this is
// the tracker's native precision; under Aikido it becomes a shared-data
// taint tracker — private-page flows are invisible, the framework
// trade-off §1 describes for analyses that fundamentally need every
// access.
func (t *Tracker) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	in := t.prog.Code[pc]
	t.clock.Charge(stats.ShadowTranslate)
	rf := t.regFile(tid)
	if write {
		tainted := rf[in.Rt]
		t.setMem(tid, addr, size, tainted)
		if tainted {
			t.C.TaintedStores++
			if inAny(t.sinks, addr) {
				t.report(Flow{TID: tid, PC: pc, Addr: addr, Size: size})
			}
		}
		return
	}
	tainted := t.memTainted(tid, addr, size)
	rf[in.Rd] = tainted
	if tainted {
		t.C.TaintedLoads++
	}
}

// OnSharedAccess implements analysis.Analysis (the AikidoSD client
// surface).
func (t *Tracker) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	t.OnAccess(tid, pc, addr, size, write)
}

// OnFork implements analysis.Analysis: taint crosses thread creation
// through the spawn argument (the child's R0 is the parent's R1 in the
// guest ABI).
func (t *Tracker) OnFork(parent, child guest.TID) {
	t.regFile(child)[isa.R0] = t.regFile(parent)[isa.R1]
}

// Report implements analysis.Analysis.
func (t *Tracker) Report() analysis.Findings {
	return &Findings{Counters: t.C, Flows: t.Flows()}
}

// Findings is the tracker's analysis.Findings: source→sink flows plus the
// propagation counters behind them.
type Findings struct {
	Counters Counters
	Flows    []Flow
}

// Analysis implements analysis.Findings.
func (f *Findings) Analysis() string { return Kind }

// Len implements analysis.Findings.
func (f *Findings) Len() int { return len(f.Flows) }

// Strings implements analysis.Findings.
func (f *Findings) Strings() []string {
	out := make([]string, len(f.Flows))
	for i, fl := range f.Flows {
		out[i] = fl.String()
	}
	return out
}

// Summary implements analysis.Findings.
func (f *Findings) Summary() string {
	return fmt.Sprintf("tainted-loads=%d tainted-stores=%d flows=%d regops=%d",
		f.Counters.TaintedLoads, f.Counters.TaintedStores, f.Counters.Flows,
		f.Counters.RegOps)
}
