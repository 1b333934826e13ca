package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// randomSpec draws a bounded random workload specification.
func randomSpec(rng *rand.Rand, i int) Spec {
	s := Spec{
		Name:         "prop",
		Threads:      1 + rng.Intn(4),
		Iters:        1 + rng.Intn(20),
		AluOps:       rng.Intn(4),
		PrivateOps:   rng.Intn(5),
		PrivatePages: 1 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		s.SharedOps = 1 + rng.Intn(3)
		s.SharedPeriod = 1 + rng.Intn(3)
		s.Locks = rng.Intn(3)
		s.SharedWritePct = rng.Intn(101)
	}
	if rng.Intn(2) == 0 {
		s.MixedOps = 1 + rng.Intn(2)
		s.MixedPeriod = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		s.RacyOps = 1 + rng.Intn(2)
		s.RacyPeriod = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		s.ROSharedOps = 1 + rng.Intn(2)
	}
	if rng.Intn(4) == 0 {
		s.BarrierPeriod = 1 + rng.Intn(5)
	}
	return s
}

// runawayInstrs bounds the property tests' bare runs: a builder bug that
// emits an endless loop fails the test instead of hanging it.
const runawayInstrs = 5_000_000

// boundedEngine builds a tool-less engine over p whose run aborts at the
// first scheduling quantum past runawayInstrs retired instructions.
func boundedEngine(p *guest.Process) *dbi.Engine {
	eng := dbi.New(p, nil, nil, &stats.Clock{}, dbi.DefaultConfig())
	eng.OnQuantum = func() error {
		if eng.C.Instructions > runawayInstrs {
			return fmt.Errorf("exceeded %d instructions (runaway loop?)", runawayInstrs)
		}
		return nil
	}
	return eng
}

// runNative executes a program bare (no tools) and fails on any guest
// error.
func runNative(t *testing.T, prog *isa.Program) *dbi.Result {
	t.Helper()
	p, err := guest.NewProcess(vm.NewMachine(), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := boundedEngine(p).Run()
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return res
}

// TestRandomSpecsBuildAndRun: every valid random spec compiles to a valid
// program that runs to a clean exit — the builder never emits out-of-range
// branches, unbalanced locks, broken barriers or runaway loops.
func TestRandomSpecsBuildAndRun(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA1C1D0))
	for i := 0; i < 60; i++ {
		s := randomSpec(rng, i)
		prog, err := Build(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		if err := prog.Valid(); err != nil {
			t.Fatalf("spec %+v: invalid program: %v", s, err)
		}
		res := runNative(t, prog)
		if res.ExitCode != 0 {
			t.Fatalf("spec %+v: exit %d", s, res.ExitCode)
		}
		// The retired memory-reference count must be exactly the spec's
		// arithmetic (periodic ops fire on every Period-th counter
		// expiry) plus bounded bookkeeping: the main thread's tid
		// store/load pair per worker, and the stack save/restore pair
		// around each barrier arrival.
		perWorker := s.Iters * (s.PrivateOps + s.MixedOps + s.ROSharedOps)
		if s.SharedPeriod > 0 {
			perWorker += (s.Iters / s.SharedPeriod) * s.SharedOps
		}
		if s.RacyPeriod > 0 {
			perWorker += (s.Iters / s.RacyPeriod) * s.RacyOps
		}
		workers := perWorker * s.Threads
		bookkeeping := 2 * s.Threads
		if s.BarrierPeriod > 0 {
			bookkeeping += 2 * s.Threads * (s.Iters / s.BarrierPeriod)
		}
		got := int(res.Counters.MemRefs)
		if got < workers || got > workers+bookkeeping {
			t.Errorf("spec %+v: mem refs %d outside [%d, %d]",
				s, got, workers, workers+bookkeeping)
		}
	}
}

// TestRandomForkJoinSpecs: random fork-join shapes build, run serially
// (the SP-bags substrate) and touch every array element exactly once.
func TestRandomForkJoinSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF0423))
	for i := 0; i < 25; i++ {
		s := ForkJoinSpec{
			Name:     "fjprop",
			Elems:    4 + rng.Intn(120),
			LeafSize: 1 + rng.Intn(16),
		}
		prog, err := BuildForkJoin(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		p, err := guest.NewProcess(vm.NewMachine(), prog)
		if err != nil {
			t.Fatal(err)
		}
		p.Policy = guest.SchedSerialDFS
		res, err := boundedEngine(p).Run()
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("spec %+v: exit %d", s, res.ExitCode)
		}
		// Every element incremented exactly once: read the array back.
		dataVMA := p.FindVMA(isa.DataBase)
		if dataVMA == nil {
			t.Fatal("no data VMA")
		}
		for e := 0; e < s.Elems; e++ {
			addr := isa.DataBase + uint64(8*e)
			pte, ok := p.PT.Lookup(vm.PageNum(addr))
			if !ok {
				t.Fatalf("element %d unmapped", e)
			}
			if v := p.M.ReadU(pte.Frame, vm.PageOff(addr), 8); v != 1 {
				t.Fatalf("spec %+v: arr[%d] = %d, want 1", s, e, v)
			}
		}
	}
}
