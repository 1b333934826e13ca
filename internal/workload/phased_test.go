package workload

import (
	"reflect"
	"testing"
)

func validPhased() PhasedSpec {
	return PhasedSpec{
		Name: "p", Threads: 4, Phases: 3, PhaseIters: 10,
		PagesPerPart: 2, OpsPerIter: 4, AluOps: 2, WarmupOps: 1,
	}
}

func TestPhasedValidate(t *testing.T) {
	good := validPhased()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*PhasedSpec){
		"no threads": func(s *PhasedSpec) { s.Threads = 0 },
		"no phases":  func(s *PhasedSpec) { s.Phases = 0 },
		"no iters":   func(s *PhasedSpec) { s.PhaseIters = 0 },
		"no pages":   func(s *PhasedSpec) { s.PagesPerPart = 0 },
		"no ops":     func(s *PhasedSpec) { s.OpsPerIter = 0 },
		"bad stride": func(s *PhasedSpec) { s.MigrateStride = -1 },
		"bad pct":    func(s *PhasedSpec) { s.WritePct = 101 },
	} {
		s := validPhased()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestFalseSharingValidate(t *testing.T) {
	good := FalseSharingSpec{Name: "f", Threads: 4, Iters: 10, Pages: 1, OpsPerIter: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.SlotStride = 12 // not a multiple of 8
	if err := bad.Validate(); err == nil {
		t.Error("unaligned SlotStride accepted")
	}
	bad = good
	bad.Threads = 600 // 600 slots at default stride overflow the page
	if err := bad.Validate(); err == nil {
		t.Error("page-overflowing slot layout accepted")
	}
}

// TestPhasedBuildDeterministic pins the runner's determinism requirement
// on the new generators: compiling the same spec twice yields identical
// programs, and both generators produce runnable code for the migratory
// and fixed-partition dials.
func TestPhasedBuildDeterministic(t *testing.T) {
	for _, stride := range []int{0, 1, 3} {
		s := validPhased()
		s.MigrateStride = stride
		a, err := BuildPhased(s)
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		b, err := BuildPhased(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Code, b.Code) || !reflect.DeepEqual(a.Data, b.Data) || a.DataSize != b.DataSize {
			t.Errorf("stride %d: BuildPhased is not deterministic", stride)
		}
	}
	f := FalseSharingSpec{Name: "f", Threads: 4, Iters: 10, Pages: 2, OpsPerIter: 4, SlotStride: 64}
	a, err := BuildFalseSharing(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFalseSharing(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Code, b.Code) {
		t.Error("BuildFalseSharing is not deterministic")
	}
}

// TestSourceSeam checks the Source implementations agree with their
// package-level builders.
func TestSourceSeam(t *testing.T) {
	var srcs = []Source{
		Spec{Name: "spec", Threads: 1, Iters: 1, PrivateOps: 1, PrivatePages: 1},
		validPhased(),
		FalseSharingSpec{Name: "fs", Threads: 2, Iters: 2, Pages: 1, OpsPerIter: 1},
	}
	for _, src := range srcs {
		prog, err := src.Compile()
		if err != nil {
			t.Fatalf("%s: %v", src.SourceName(), err)
		}
		if prog.Name != src.SourceName() {
			t.Errorf("program name %q != source name %q", prog.Name, src.SourceName())
		}
	}
}
