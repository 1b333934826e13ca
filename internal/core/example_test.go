package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/workload"
)

// exampleProgram builds a tiny two-worker guest whose threads hammer one
// shared page (with an unsynchronized racy slot) next to private data —
// enough to exercise every layer of the stack in milliseconds. Workload
// programs are pure functions of their spec, so every run of these
// examples sees identical results.
func exampleProgram() *isa.Program {
	prog, err := workload.Build(workload.Spec{
		Name: "example", Threads: 2, Iters: 120,
		AluOps: 4, PrivateOps: 2, PrivatePages: 1,
		SharedOps: 1, SharedPeriod: 1, Locks: 1,
		RacyOps: 1, RacyPeriod: 1,
	})
	if err != nil {
		panic(err)
	}
	return prog
}

// ExampleRun runs the full Aikido stack — AikidoVM per-thread protection,
// AikidoSD sharing detection, mirror redirection — with FastTrack as the
// hosted analysis. Only accesses to shared pages reach the detector, yet
// the unsynchronized racy slot is still caught.
func ExampleRun() {
	prog := exampleProgram()
	res, err := core.Run(prog, core.DefaultConfig(core.ModeAikidoFastTrack))
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", res.Mode)
	fmt.Println("only shared accesses analyzed:",
		res.Engine.InstrumentedExecs > 0 && res.Engine.InstrumentedExecs < res.Engine.MemRefs)
	fmt.Println("race caught:", len(fasttrack.RacesIn(res.Findings)) > 0)
	// Output:
	// mode: Aikido-FastTrack
	// only shared accesses analyzed: true
	// race caught: true
}

// ExampleRun_native is the normalization baseline of Figure 5: plain
// execution with no DBI engine cost and no analysis.
func ExampleRun_native() {
	prog := exampleProgram()
	res, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", res.Mode)
	fmt.Println("instrumented:", res.Engine.InstrumentedExecs)
	fmt.Println("races:", len(fasttrack.RacesIn(res.Findings)))
	// Output:
	// mode: native
	// instrumented: 0
	// races: 0
}

// ExampleRun_dbi measures the DynamoRIO-only floor: the guest runs under
// the code cache with no tool attached, so the only overhead is engine
// dispatch and block building.
func ExampleRun_dbi() {
	prog := exampleProgram()
	native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		panic(err)
	}
	res, err := core.Run(prog, core.DefaultConfig(core.ModeDBI))
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", res.Mode)
	fmt.Println("dispatch overhead paid:", res.Cycles > native.Cycles)
	fmt.Println("analysis attached:", res.Engine.InstrumentedExecs > 0)
	// Output:
	// mode: dbi
	// dispatch overhead paid: true
	// analysis attached: false
}

// ExampleRun_fastTrackFull is the paper's conservative baseline: FastTrack
// instruments every memory access through Umbra shadow translation.
func ExampleRun_fastTrackFull() {
	prog := exampleProgram()
	res, err := core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull))
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", res.Mode)
	fmt.Println("every access analyzed:", fasttrack.CountersIn(res.Findings).Reads+fasttrack.CountersIn(res.Findings).Writes == res.Engine.MemRefs)
	fmt.Println("race caught:", len(fasttrack.RacesIn(res.Findings)) > 0)
	// Output:
	// mode: FastTrack
	// every access analyzed: true
	// race caught: true
}

// ExampleRun_aikidoProfile runs AikidoSD with no attached analysis —
// Aikido as a standalone sharing profiler (the framework is
// analysis-agnostic; §1.1). WithAnalyses with no names selects none.
func ExampleRun_aikidoProfile() {
	prog := exampleProgram()
	res, err := core.Run(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", res.Mode)
	fmt.Println("sharing observed:", res.SD.PagesShared > 0 && res.SD.SharedPageAccesses > 0)
	fmt.Println("races:", len(fasttrack.RacesIn(res.Findings)))
	// Output:
	// mode: Aikido-FastTrack
	// sharing observed: true
	// races: 0
}
