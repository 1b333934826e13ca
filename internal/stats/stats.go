// Package stats provides the simulated cycle clock and the cost model that
// turns mechanism events (instructions, faults, hypercalls, instrumentation)
// into simulated time.
//
// The paper evaluates Aikido by wall-clock slowdown on a Xeon X7550. A Go
// reimplementation cannot reproduce those absolute numbers (the substrate is
// a simulator), so simulated cycles are the primary metric: every component
// charges its events to one shared Clock using the costs configured here.
// The *ratios* between runs — who wins, by what factor — are then stable,
// machine-independent, and directly comparable to the shapes in Figure 5,
// Figure 6 and Table 1. See "Data flow: one memory access" in
// ARCHITECTURE.md.
package stats

import (
	"fmt"
	"math"
)

// CostModel assigns simulated cycle costs to mechanism events. The defaults
// (DefaultCosts) are loosely calibrated so that a FastTrack-style analysis
// of every memory access lands in the paper's 50–200× slowdown band and a
// hardware page fault costs a few thousand instructions, as on real x86.
type CostModel struct {
	// NativeInstr is the base cost of retiring one instruction.
	NativeInstr uint64

	// DispatchBlock is the code-cache dispatch cost for an unlinked block
	// transition (indirect lookup); DispatchLinked is the cost when the
	// previous block was directly linked to this one; DispatchTrace is
	// the cost within a hot trace.
	DispatchBlock  uint64
	DispatchLinked uint64
	DispatchTrace  uint64

	// BuildBlockBase/BuildPerInstr model JIT-compiling a basic block into
	// the code cache; FlushBlock models deleting one cached block.
	BuildBlockBase uint64
	BuildPerInstr  uint64
	FlushBlock     uint64

	// Fault is the end-to-end cost of a page fault delivered to the guest
	// userspace handler through the hypervisor (§3.2.5).
	Fault uint64
	// Hypercall is one AikidoLib hypercall.
	Hypercall uint64
	// ShadowFill is one lazy shadow-page-table population (hidden fault)
	// under shadow paging; EPTWalk is the two-dimensional guest+EPT walk
	// paid on a TLB miss under nested paging (§3.2.2). The EPT walk is
	// pricier per miss, but nested paging never pays PTUpdateTrap.
	ShadowFill uint64
	EPTWalk    uint64
	// PTUpdateTrap is the VM exit + emulation cost of one trapped guest
	// page-table write under shadow paging (§3.2.2); nested paging
	// updates guest page tables without hypervisor involvement.
	PTUpdateTrap uint64
	// ShadowRootSwitch is the shadow-root (CR3-analogue) swap on a
	// context switch under shadow paging; EPTPSwitch is the (cheaper)
	// EPT-pointer switch under nested paging.
	ShadowRootSwitch uint64
	EPTPSwitch       uint64
	// KernelEmulation is one guest-kernel instruction emulated by the
	// hypervisor (§3.2.6).
	KernelEmulation uint64
	// ContextSwitch is a guest thread switch (including the VM exit).
	ContextSwitch uint64
	// Syscall is the base guest syscall cost.
	Syscall uint64
	// ProcessSwitch is a full process context switch (address-space
	// change), paid per switch by the DTHREADS-style processes-as-threads
	// protection provider (§7.1).
	ProcessSwitch uint64
	// Fork is one process creation, paid per "thread" by the
	// processes-as-threads provider.
	Fork uint64
	// ThreadTableSetup is the cost of cloning a per-thread page table at
	// thread creation, paid by the dOS-style modified-kernel provider
	// (§7.1, ref [3]).
	ThreadTableSetup uint64
	// KernelCheck is the modified kernel's ownership-table consultation
	// when it touches a per-thread-protected page on a thread's behalf —
	// the dOS analogue of AikidoVM's much dearer KernelEmulation (§3.2.6).
	KernelCheck uint64

	// ShadowTranslate is Umbra's app→shadow translation when the inlined
	// memoization cache hits; ShadowTranslateMiss when the lean-procedure
	// lookup runs instead (§2.2).
	ShadowTranslate     uint64
	ShadowTranslateMiss uint64
	// MirrorRedirect is the extra cost of rewriting an access to its
	// mirror address (effective-address patch or base translation).
	MirrorRedirect uint64
	// SharedCheck is the emitted shared/private branch for indirect
	// instructions (Figure 4).
	SharedCheck uint64

	// AnalysisFast is the analysis tool's per-access cost on its fast
	// path (FastTrack same-epoch); AnalysisSlow on its slow path (vector
	// clock comparison/promotion); AnalysisSync per synchronization
	// event.
	AnalysisFast uint64
	AnalysisSlow uint64
	AnalysisSync uint64
	// AnalysisContention models metadata contention: extra cycles per
	// analyzed access, scaled by (liveThreads-1)^1.3 (cache-line
	// ping-pong on shadow metadata grows superlinearly with sharers).
	// This is what makes detector overheads grow with thread count, the
	// effect visible in Table 1.
	AnalysisContention uint64
	// MirrorContention models coherence traffic on mirror pages: every
	// redirected access targets the mirror copy of *shared* data, so
	// these lines ping-pong between all cores; charged per redirect,
	// scaled by (liveThreads-1)^2. This term is why Aikido's advantage
	// shrinks at high thread counts on heavily-sharing benchmarks
	// (the fluidanimate row of Table 1).
	MirrorContention uint64
	// InstrumentedExec is the per-execution cost of the code AikidoSD
	// emits around an instrumented instruction (Figure 4): the inlined
	// app→shadow translation, the shared/private branch for indirect
	// accesses, the mirror-address computation, and the code-cache bloat
	// of the re-JITed block. Charged only by the Aikido path; the
	// full-instrumentation baseline pays ShadowTranslate inline instead.
	InstrumentedExec uint64
}

// DefaultCosts returns the calibrated default cost model.
func DefaultCosts() CostModel {
	return CostModel{
		NativeInstr:         1,
		DispatchBlock:       4,
		DispatchLinked:      1,
		DispatchTrace:       0,
		BuildBlockBase:      200,
		BuildPerInstr:       20,
		FlushBlock:          150,
		Fault:               3000,
		Hypercall:           400,
		ShadowFill:          40,
		EPTWalk:             120,
		PTUpdateTrap:        800,
		ShadowRootSwitch:    60,
		EPTPSwitch:          40,
		KernelEmulation:     1500,
		ContextSwitch:       300,
		Syscall:             150,
		ProcessSwitch:       600,
		Fork:                25000,
		ThreadTableSetup:    5000,
		KernelCheck:         40,
		ShadowTranslate:     10,
		ShadowTranslateMiss: 60,
		MirrorRedirect:      3,
		SharedCheck:         3,
		AnalysisFast:        100,
		AnalysisSlow:        300,
		AnalysisSync:        120,
		AnalysisContention:  20,
		MirrorContention:    5,
		InstrumentedExec:    40,
	}
}

// Clock accumulates simulated cycles. All components of one System share a
// single Clock.
type Clock struct {
	cycles uint64
}

// Charge adds n cycles.
func (c *Clock) Charge(n uint64) { c.cycles += n }

// Cycles returns the accumulated simulated time.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles = 0 }

// Slowdown returns the ratio of this clock to a baseline cycle count,
// the "slowdown vs native" metric of Figure 5 (lower is better).
func (c *Clock) Slowdown(baseline uint64) float64 {
	if baseline == 0 {
		return 0
	}
	return float64(c.cycles) / float64(baseline)
}

// Ratio is a convenience for formatting slowdown-style numbers.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Geomean returns the geometric mean of xs (ignoring non-positive values,
// which would otherwise poison the product).
func Geomean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// FormatX renders a slowdown like "76.25x".
func FormatX(v float64) string { return fmt.Sprintf("%.2fx", v) }

// FormatPct renders a fraction as a percentage like "12.3%".
func FormatPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
