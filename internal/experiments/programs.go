package experiments

import (
	"repro/internal/isa"
	"repro/internal/vm"
)

// stmProgram builds the STM stress program used by ExtensionSTM: workers
// increment a counter twice per transaction (invariant: committed value is
// always even); an observer reads the counter with plain loads and raises a
// flag on any odd value. Exit code: 0 ok, 1 invariant violated, 2 lost
// updates.
func stmProgram(workers, iters, obsIters int) (*isa.Program, error) {
	const (
		rX   = isa.R4
		rV   = isa.R5
		rF   = isa.R6
		rTmp = isa.R7
		rOne = isa.R8
	)
	b := isa.NewBuilder("stm-even")
	x := b.Global(vm.PageSize, vm.PageSize)
	errFlag := b.Global(vm.PageSize, vm.PageSize)
	tids := b.GlobalArray(workers + 1)

	for w := 0; w < workers; w++ {
		b.MovImm(rTmp, int64(w))
		b.ThreadCreate("worker", rTmp)
		b.StoreAbs(tids+uint64(8*w), isa.R0)
	}
	b.MovImm(rTmp, 0)
	b.ThreadCreate("observer", rTmp)
	b.StoreAbs(tids+uint64(8*workers), isa.R0)
	for w := 0; w <= workers; w++ {
		b.LoadAbs(rV, tids+uint64(8*w))
		b.ThreadJoin(rV)
	}
	b.LoadAbs(rV, x)
	b.BrImm(isa.EQ, rV, int64(2*workers*iters), ".total_ok")
	b.MovImm(isa.R0, 2)
	b.Syscall(isa.SysExit)
	b.Label(".total_ok")
	b.LoadAbs(isa.R0, errFlag)
	b.Syscall(isa.SysExit)

	b.Label("worker")
	b.MovImm(rX, int64(x))
	b.LoopN(isa.R2, int64(iters), func(b *isa.Builder) {
		b.Label(".wretry")
		b.TxBegin()
		b.Load(rV, rX, 0)
		b.AddImm(rV, rV, 1)
		b.Store(rX, 0, rV)
		b.Add(rTmp, rTmp, isa.R2)
		b.Add(rTmp, rTmp, isa.R2)
		b.Load(rV, rX, 0)
		b.AddImm(rV, rV, 1)
		b.Store(rX, 0, rV)
		b.TxEnd()
		b.BrImm(isa.EQ, isa.R0, 0, ".wretry")
	})
	b.Halt()

	b.Label("observer")
	b.MovImm(rX, int64(x))
	b.MovImm(rF, int64(errFlag))
	b.MovImm(rOne, 1)
	b.LoopN(isa.R2, int64(obsIters), func(b *isa.Builder) {
		b.Load(rV, rX, 0)
		b.And(rV, rV, rOne)
		b.BrImm(isa.EQ, rV, 0, ".obs_ok")
		b.Store(rF, 0, rOne)
		b.Label(".obs_ok")
	})
	b.Halt()

	return b.Finish()
}
