package sharing_test

// Property test of the full Aikido stack: generate random per-thread page
// access patterns, compile them to a guest program, run them through the
// real machinery (hypervisor faults, AikidoSD transitions), and check the
// final page states against ground truth computed directly from the
// pattern:
//
//   - pages touched by exactly one thread end Private(that thread);
//   - pages touched by two or more threads end Shared;
//   - untouched pages end Unused;
//   - no spurious faults ever occur.

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sharing"
	"repro/internal/vm"
)

// pattern describes which of 6 pages each of up to 3 workers touches.
type pattern struct {
	// Touch[w] is a bitmask of pages worker w accesses (in order).
	Touch [3]uint8
	// Writes selects store vs load per worker.
	Writes [3]bool
}

const propPages = 6

// buildPattern compiles the pattern: main creates the workers serially and
// joins them; worker w touches its pages twice each (second touch must not
// fault when private).
func buildPattern(p pattern) *isa.Program {
	b := isa.NewBuilder("pattern")
	pages := b.Global(propPages*vm.PageSize, vm.PageSize)

	b.MovImm(isa.R5, 0)
	for w := 0; w < 3; w++ {
		b.MovImm(isa.R5, int64(w))
		b.ThreadCreate("worker", isa.R5)
		b.Mov(isa.R9, isa.R0)
		b.ThreadJoin(isa.R9) // serialize: deterministic sharing order
	}
	b.Halt()

	b.Label("worker")
	// Dispatch on worker index (R0) to that worker's touch sequence.
	for w := 0; w < 3; w++ {
		b.BrImm(isa.NE, isa.R0, int64(w), skipLabel(w))
		for pg := 0; pg < propPages; pg++ {
			if p.Touch[w]&(1<<pg) == 0 {
				continue
			}
			addr := pages + uint64(pg*vm.PageSize) + uint64(8*w)
			for rep := 0; rep < 2; rep++ {
				if p.Writes[w] {
					b.MovImm(isa.R1, int64(w+1))
					b.StoreAbs(addr, isa.R1)
				} else {
					b.LoadAbs(isa.R1, addr)
				}
			}
		}
		b.Halt()
		b.Label(skipLabel(w))
	}
	b.Halt()
	return b.MustFinish()
}

func skipLabel(w int) string {
	return "skip" + string(rune('0'+w))
}

func TestSharingStateMachineProperty(t *testing.T) {
	prop := func(p pattern) bool {
		prog := buildPattern(p)
		s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		if _, err := s.Run(); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		if s.SD.C.SpuriousFaults != 0 {
			t.Logf("spurious faults: %d", s.SD.C.SpuriousFaults)
			return false
		}
		pagesBase := isa.DataBase
		for pg := 0; pg < propPages; pg++ {
			var touchers []int
			for w := 0; w < 3; w++ {
				if p.Touch[w]&(1<<pg) != 0 {
					touchers = append(touchers, w)
				}
			}
			st, owner := s.SD.PageStateOf(pagesBase + uint64(pg*vm.PageSize))
			switch len(touchers) {
			case 0:
				if st != sharing.Unused {
					t.Logf("page %d: %v, want unused", pg, st)
					return false
				}
			case 1:
				// Worker w is TID w+2 (main is 1, workers created in order).
				wantOwner := touchers[0] + 2
				if st != sharing.Private || int(owner) != wantOwner {
					t.Logf("page %d: %v/%d, want private/%d", pg, st, owner, wantOwner)
					return false
				}
			default:
				if st != sharing.Shared {
					t.Logf("page %d: %v, want shared (touchers %v)", pg, st, touchers)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSharingDeterministicAcrossRuns(t *testing.T) {
	// The same pattern always produces identical fault counts and states.
	p := pattern{Touch: [3]uint8{0b101011, 0b001110, 0b100001}, Writes: [3]bool{true, false, true}}
	prog := buildPattern(p)
	var base *core.Result
	for i := 0; i < 3; i++ {
		res, err := core.Run(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
		} else if res.HV.AikidoFaults != base.HV.AikidoFaults ||
			res.SD.PagesShared != base.SD.PagesShared ||
			res.Cycles != base.Cycles {
			t.Fatalf("run %d diverged: %+v vs %+v", i, res.SD, base.SD)
		}
	}
}
