// Package analysis is the first-class seam for Aikido's pluggable
// shared-data analyses — the framework claim of the paper's §1.1 and §7
// made into an API. The paper argues that *any* dynamic analysis whose
// subject is shared data (race detection, atomicity checking, sharing
// profiling, determinacy checking, …) can be hosted on the AikidoSD
// sharing detector and accelerated identically, because the framework —
// not the analysis — decides which accesses are worth instrumenting.
// §7 makes the extensibility argument concrete by walking through LockSet,
// atomicity checkers and record/replay as further clients; this package is
// where those clients plug in.
//
// Four pieces implement the seam:
//
//   - Analysis is the hook surface an analysis implements: per-access
//     events (full-instrumentation or shared-only), the guest
//     synchronization events that carry happens-before edges
//     (lock/fork/join/exit/barrier), a live-thread count for contention
//     models, and a uniform Report.
//   - Registry maps stable names ("fasttrack", "lockset", …) to analysis
//     factories. Detector packages register themselves in init(), so a
//     new analysis lands by adding one package — no enum case in core, no
//     switch in the cmds.
//   - Mux fans one instrumented execution out to N registered analyses,
//     so a single DBI+sharing pass amortizes its cost over every hosted
//     analysis instead of paying one full execution per analysis.
//   - Store is the paged per-variable metadata table (one cell per 8-byte
//     block) the core detectors keep their shadow state in.
//
// The dispatch path is allocation-free: the Mux iterates a fixed slice of
// interfaces, and every hook forwards without boxing — the per-access
// zero-allocation regression contract of the DBI→sharing pipeline extends
// through this package (see alloc_test.go).
package analysis

import (
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/umbra"
)

// Findings is the uniform result surface every analysis returns: a stable
// producer name, the number of stored findings, one deterministic line per
// finding, and a one-line counters summary. Consumers that need the full
// typed detail (races with PCs, lockset warnings, …) type-assert to the
// producing package's concrete findings type.
type Findings interface {
	// Analysis names the producing analysis (its registry name).
	Analysis() string
	// Len is the number of stored findings (races, warnings, violations,
	// flows, …). Findings beyond the analysis's cap are counted by the
	// analysis but not stored.
	Len() int
	// Strings renders each stored finding as one line, deterministically
	// ordered — the registry-driven findings tables in the cmds print
	// these verbatim, and the mux-equivalence tests compare them
	// byte-for-byte against single-analysis runs.
	Strings() []string
	// Summary is a one-line account of the analysis's work counters
	// (reads/writes/fast/slow paths), for human-readable reports.
	Summary() string
}

// Analysis is the hook surface every hosted shared-data analysis
// implements. Access events arrive through OnAccess (conservative
// full-instrumentation tools) or OnSharedAccess (AikidoSD clients, which
// see exactly the accesses that target shared pages — the paper's
// acceleration). The synchronization hooks mirror the guest events that
// carry happens-before edges; analyses that do not need one implement it
// as a no-op (embedding NoSync provides them all).
type Analysis interface {
	// Name is the analysis's registry name; a System's results are keyed
	// by it.
	Name() string

	// OnAccess processes one memory access (full instrumentation).
	OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool)
	// OnSharedAccess processes one access to a shared page (the AikidoSD
	// client surface; satisfies sharing.Analysis structurally).
	OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool)

	// OnAcquire / OnRelease are the guest lock hooks.
	OnAcquire(tid guest.TID, lock int64)
	OnRelease(tid guest.TID, lock int64)
	// OnFork fires when parent spawns child (after the child exists).
	OnFork(parent, child guest.TID)
	// OnJoin fires when joiner completes a join on child.
	OnJoin(joiner, child guest.TID)
	// OnExit fires when a thread exits (before AddThread(-1)).
	OnExit(tid guest.TID)
	// OnBarrierWait / OnBarrierRelease are the guest barrier hooks.
	OnBarrierWait(tid guest.TID, id int64)
	OnBarrierRelease(tid guest.TID, id int64)
	// AddThread adjusts the live-thread count (delta ±1), feeding the
	// analyses' metadata-contention models.
	AddThread(delta int)

	// Report returns the analysis's findings. It may be called once, at
	// the end of a run.
	Report() Findings
}

// Env is the context a Factory builds an analysis in. A core.System, the
// one host of registry analyses, sets Clock and Process, and Umbra
// in the modes that attach shadow memory. Factories that require a
// facility the environment lacks say so by returning an error.
type Env struct {
	Clock *stats.Clock
	// Process is the guest process under analysis. A factory may set its
	// scheduling policy before the run starts (spbags does).
	Process *guest.Process
	// Umbra is the process's shadow-memory engine (nil outside a system,
	// and in modes that do not attach shadow memory).
	Umbra *umbra.Umbra
}

// NoSync is an embeddable base providing no-op implementations of every
// synchronization hook, for analyses that only consume the access stream
// (profilers) or a subset of the events. Embedders override what they
// need.
type NoSync struct{}

// OnAcquire implements Analysis.
func (NoSync) OnAcquire(tid guest.TID, lock int64) {}

// OnRelease implements Analysis.
func (NoSync) OnRelease(tid guest.TID, lock int64) {}

// OnFork implements Analysis.
func (NoSync) OnFork(parent, child guest.TID) {}

// OnJoin implements Analysis.
func (NoSync) OnJoin(joiner, child guest.TID) {}

// OnExit implements Analysis.
func (NoSync) OnExit(tid guest.TID) {}

// OnBarrierWait implements Analysis.
func (NoSync) OnBarrierWait(tid guest.TID, id int64) {}

// OnBarrierRelease implements Analysis.
func (NoSync) OnBarrierRelease(tid guest.TID, id int64) {}

// AddThread implements Analysis.
func (NoSync) AddThread(delta int) {}
