// Memory audit with the Umbra-hosted memory checker (paper §2.2, Dr.
// Memory ref [8]): find an uninitialized read and a use-after-unmap in a
// buggy guest program — the "finding memory usage errors" member of the
// shadow-value tool family the Aikido paper builds on. The checker runs
// as the "memcheck" analysis of a fully instrumented core.System.
//
// Run with:
//
//	go run ./examples/memaudit
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memcheck"
	"repro/internal/pagetable"
)

// buildBuggy assembles a program with two classic memory bugs.
func buildBuggy() *isa.Program {
	b := isa.NewBuilder("memaudit")

	// Bug 1: read a freshly mmapped buffer before initializing it.
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)       // R4 = buffer
	b.Load(isa.R5, isa.R4, 128) // uninitialized read!
	b.Store(isa.R4, 0, isa.R5)  // (initializes byte 0..7)
	b.Load(isa.R6, isa.R4, 0)   // fine: now defined

	// Bug 2: free the buffer, then touch it again.
	b.Mov(isa.R0, isa.R4)
	b.Syscall(isa.SysMunmap)
	b.Load(isa.R7, isa.R4, 0) // use after unmap!

	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	return b.MustFinish()
}

func main() {
	fmt.Println("=== memory audit (Umbra shadow-value tool, §2.2) ===")
	s, err := core.NewSystem(buildBuggy(),
		core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(memcheck.Kind))
	if err != nil {
		log.Fatal(err)
	}
	c := s.Analysis(memcheck.Kind).(*memcheck.Checker)
	res, err := s.Run()
	if err != nil {
		// The use-after-unmap kills the guest, exactly as it would
		// natively; the checker's report explains why.
		fmt.Printf("guest crashed (expected): %v\n\n", err)
	} else {
		fmt.Printf("guest exited %d\n\n", res.ExitCode)
	}

	reports := c.Reports()
	fmt.Printf("checker found %d distinct errors:\n", len(reports))
	for _, r := range reports {
		fmt.Printf("  %v\n", r)
	}
	fmt.Printf("\ncounters: %d loads, %d stores, %d uninit reads, %d invalid accesses\n",
		c.C.Loads, c.C.Stores, c.C.Uninit, c.C.Invalid)

	if len(reports) != 2 {
		log.Fatalf("expected exactly 2 distinct findings, got %d", len(reports))
	}
}
