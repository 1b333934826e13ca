// STM strong atomicity over mirror pages (paper §7.2): the Abadi-style
// software transactional memory that the paper contrasts Aikido with.
//
// Workers increment a shared counter twice per transaction, so a committed
// value is always even; an *unmodified* observer thread reads the counter
// with plain loads. With strong atomicity (page protection + mirror-mapped
// heap) the observer can never see an odd, mid-transaction value: its read
// faults, the transaction aborts and rolls back, and the read retries
// against consistent memory. With the protection off (a weakly atomic
// undo-log STM) the torn state leaks.
//
// Run with:
//
//	go run ./examples/stmatomic
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/stm"
	"repro/internal/vm"
)

const (
	workers  = 3
	iters    = 150
	obsIters = 500
)

// buildProgram assembles the even-counter invariant program. Exit code:
// 0 = invariant held and no update lost; 1 = observer saw mid-transaction
// state; 2 = lost updates.
func buildProgram() *isa.Program {
	b := isa.NewBuilder("stmatomic")
	x := b.Global(vm.PageSize, vm.PageSize)
	errFlag := b.Global(vm.PageSize, vm.PageSize)
	tids := b.GlobalArray(workers + 1)

	for w := 0; w < workers; w++ {
		b.MovImm(isa.R7, int64(w))
		b.ThreadCreate("worker", isa.R7)
		b.StoreAbs(tids+uint64(8*w), isa.R0)
	}
	b.MovImm(isa.R7, 0)
	b.ThreadCreate("observer", isa.R7)
	b.StoreAbs(tids+uint64(8*workers), isa.R0)
	for w := 0; w <= workers; w++ {
		b.LoadAbs(isa.R5, tids+uint64(8*w))
		b.ThreadJoin(isa.R5)
	}
	b.LoadAbs(isa.R5, x)
	b.BrImm(isa.EQ, isa.R5, int64(2*workers*iters), ".total_ok")
	b.MovImm(isa.R0, 2)
	b.Syscall(isa.SysExit)
	b.Label(".total_ok")
	b.LoadAbs(isa.R0, errFlag)
	b.Syscall(isa.SysExit)

	b.Label("worker")
	b.MovImm(isa.R4, int64(x))
	b.LoopN(isa.R2, iters, func(b *isa.Builder) {
		b.Label(".retry")
		b.TxBegin()
		b.Load(isa.R5, isa.R4, 0)
		b.AddImm(isa.R5, isa.R5, 1)
		b.Store(isa.R4, 0, isa.R5)
		b.Add(isa.R7, isa.R7, isa.R2) // widen the odd window
		b.Load(isa.R5, isa.R4, 0)
		b.AddImm(isa.R5, isa.R5, 1)
		b.Store(isa.R4, 0, isa.R5)
		b.TxEnd()
		b.BrImm(isa.EQ, isa.R0, 0, ".retry")
	})
	b.Halt()

	b.Label("observer")
	b.MovImm(isa.R4, int64(x))
	b.MovImm(isa.R6, int64(errFlag))
	b.MovImm(isa.R8, 1)
	b.LoopN(isa.R2, obsIters, func(b *isa.Builder) {
		b.Load(isa.R5, isa.R4, 0)
		b.And(isa.R5, isa.R5, isa.R8)
		b.BrImm(isa.EQ, isa.R5, 0, ".ok")
		b.Store(isa.R6, 0, isa.R8)
		b.Label(".ok")
	})
	b.Halt()

	return b.MustFinish()
}

func run(strong bool, patch int) *stm.Result {
	cfg := stm.Config{Strong: strong, PatchThreshold: patch, Quantum: 53} // frequent mid-transaction preemption
	s, err := stm.New(buildProgram(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func verdict(code int64) string {
	switch code {
	case 0:
		return "invariant held, no lost updates"
	case 1:
		return "observer saw MID-TRANSACTION state"
	default:
		return "updates lost"
	}
}

func main() {
	fmt.Println("=== STM with strong atomicity over mirror pages (§7.2) ===")
	strong := run(true, 0)
	fmt.Printf("strong:  exit=%d (%s)\n         %v\n",
		strong.ExitCode, verdict(strong.ExitCode), strong.C)

	patched := run(true, 3)
	fmt.Printf("patched: exit=%d (%s)\n         %v\n",
		patched.ExitCode, verdict(patched.ExitCode), patched.C)

	weak := run(false, 0)
	fmt.Printf("weak:    exit=%d (%s)\n         %v\n",
		weak.ExitCode, verdict(weak.ExitCode), weak.C)

	if strong.ExitCode != 0 || patched.ExitCode != 0 {
		log.Fatal("strong atomicity failed to hold the invariant")
	}
	if weak.ExitCode == 0 {
		fmt.Println("\n(note: the weak run happened not to expose torn state at this schedule)")
	} else {
		fmt.Println("\nThe protection (and only the protection) provides strong atomicity.")
	}
}
