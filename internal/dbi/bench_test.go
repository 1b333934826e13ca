package dbi

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// BenchmarkInterpreterThroughput measures raw simulator speed
// (instructions per second) on a tight ALU+memory loop — the denominator
// of every experiment's wall-clock cost.
func BenchmarkInterpreterThroughput(b *testing.B) {
	bld := isa.NewBuilder("throughput")
	g := bld.GlobalU64(0)
	bld.MovImm(isa.R1, int64(g))
	bld.LoopN(isa.R2, 1000, func(bld *isa.Builder) {
		bld.Add(isa.R3, isa.R3, isa.R2)
		bld.Store(isa.R1, 0, isa.R3)
		bld.Load(isa.R4, isa.R1, 0)
	})
	bld.Halt()
	prog := bld.MustFinish()

	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		p, err := guest.NewProcess(vm.NewMachine(), prog)
		if err != nil {
			b.Fatal(err)
		}
		e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Counters.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkBlockBuild measures code-cache population (JIT) cost.
func BenchmarkBlockBuild(b *testing.B) {
	bld := isa.NewBuilder("build")
	for i := 0; i < 4000; i++ {
		bld.Nop()
	}
	bld.Halt()
	prog := bld.MustFinish()
	p, err := guest.NewProcess(vm.NewMachine(), prog)
	if err != nil {
		b.Fatal(err)
	}
	e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := isa.PC(i % 3900)
		e.Flush(pc)
		e.lookup(1, pc)
	}
}

// BenchmarkPipelineDispatch measures the engine's per-instruction cost on a
// memory-heavy loop — block dispatch, the interpreter switch, the
// devirtualized page-table walk, and batched retirement accounting.
func BenchmarkPipelineDispatch(b *testing.B) {
	bld := isa.NewBuilder("pipeline")
	g := bld.GlobalU64(0)
	bld.MovImm(isa.R1, int64(g))
	bld.LoopN(isa.R2, 500, func(bld *isa.Builder) {
		bld.Store(isa.R1, 0, isa.R3)
		bld.Load(isa.R4, isa.R1, 0)
		bld.Add(isa.R3, isa.R3, isa.R2)
	})
	bld.Halt()
	prog := bld.MustFinish()

	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		p, err := guest.NewProcess(vm.NewMachine(), prog)
		if err != nil {
			b.Fatal(err)
		}
		e := New(p, nil, nil, &stats.Clock{}, DefaultConfig())
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Counters.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkWalkerTLBHit measures the host-TLB hit path of the engine's own
// walker (native, dbi and FastTrack-full): an 8-byte load of a warm page,
// as BenchmarkTranslateTLBHit measures AikidoVM's.
func BenchmarkWalkerTLBHit(b *testing.B) {
	_, d := walkerFixture(b)
	d.Load(1, isa.DataBase, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := d.Load(1, isa.DataBase+uint64(i&4088), 8, true); f != nil {
			b.Fatal(f)
		}
	}
}
