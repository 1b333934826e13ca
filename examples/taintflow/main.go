// Taint tracking with an Umbra shadow map (paper §2.2, "tracking tainted
// data"): follow untrusted input through registers, arithmetic, memory and
// thread creation to an output sink — and confirm that laundering through
// constants breaks the flow. The tracker runs as the "taint" analysis of
// a fully instrumented core.System; its sources and sinks are set between
// NewSystem and Run.
//
// Run with:
//
//	go run ./examples/taintflow
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/taint"
	"repro/internal/vm"
)

func main() {
	b := isa.NewBuilder("taintflow")
	input := b.Global(vm.PageSize, vm.PageSize)   // untrusted input buffer
	output := b.Global(vm.PageSize, vm.PageSize)  // trusted output buffer
	scratch := b.Global(vm.PageSize, vm.PageSize) // internal working memory

	// main: read input, transform it, park it in scratch, hand it to a
	// worker thread which writes the result to the output buffer.
	b.LoadAbs(isa.R4, input)         // tainted
	b.MovImm(isa.R5, 0x5f)           //
	b.Xor(isa.R4, isa.R4, isa.R5)    // still tainted through arithmetic
	b.StoreAbs(scratch+32, isa.R4)   // tainted memory
	b.LoadAbs(isa.R6, scratch+32)    // reload: taint survives the round-trip
	b.ThreadCreate("worker", isa.R6) // taint crosses the spawn argument
	b.Mov(isa.R9, isa.R0)            //
	b.MovImm(isa.R7, 7)              //
	b.StoreAbs(output+64, isa.R7)    // clean constant write: NOT a flow
	b.ThreadJoin(isa.R9)             //
	b.MovImm(isa.R0, 0)              //
	b.Syscall(isa.SysExit)           //
	b.Label("worker")                //
	b.AddImm(isa.R1, isa.R0, 100)    // worker transforms its argument
	b.StoreAbs(output, isa.R1)       // tainted write into the sink
	b.Halt()

	s, err := core.NewSystem(b.MustFinish(),
		core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(taint.Kind))
	if err != nil {
		log.Fatal(err)
	}
	tr := s.Analysis(taint.Kind).(*taint.Tracker)
	tr.AddSource(input, vm.PageSize)
	tr.AddSink(output, vm.PageSize)
	res, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== taint flow analysis (Umbra shadow-value tool, §2.2) ===")
	fmt.Printf("guest exited %d after %d instructions\n\n", res.ExitCode, res.Engine.Instructions)
	flows := tr.Flows()
	fmt.Printf("flows into the output buffer: %d\n", len(flows))
	for _, f := range flows {
		fmt.Printf("  %v\n", f)
	}
	fmt.Printf("\ncounters: %d tainted loads, %d tainted stores, %d register ops shadowed\n",
		tr.C.TaintedLoads, tr.C.TaintedStores, tr.C.RegOps)

	if len(flows) != 1 {
		log.Fatalf("expected exactly 1 flow (the worker's write), got %d", len(flows))
	}
	fmt.Println("\nThe tainted path (input → xor → memory → spawn arg → add → output)")
	fmt.Println("was tracked end to end; the constant write to output+64 was not flagged.")
}
