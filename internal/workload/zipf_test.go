package workload

import (
	"reflect"
	"testing"
)

func validZipf() ZipfSpec {
	return ZipfSpec{
		Name: "z", Threads: 4, Iters: 10, Pages: 8, OpsPerIter: 16,
		AluOps: 2, Skew: 1.2,
	}
}

func TestZipfValidate(t *testing.T) {
	good := validZipf()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*ZipfSpec){
		"no threads":    func(s *ZipfSpec) { s.Threads = 0 },
		"no iters":      func(s *ZipfSpec) { s.Iters = 0 },
		"no pages":      func(s *ZipfSpec) { s.Pages = 0 },
		"no ops":        func(s *ZipfSpec) { s.OpsPerIter = 0 },
		"negative skew": func(s *ZipfSpec) { s.Skew = -0.5 },
		"bad pct":       func(s *ZipfSpec) { s.WritePct = 101 },
		"slot overflow": func(s *ZipfSpec) { s.Threads = 600 },
	} {
		s := validZipf()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

// TestZipfBuildDeterministic pins the runner's determinism requirement:
// the internal sampler is seeded by the spec's shape only, so compiling
// the same spec twice yields identical programs.
func TestZipfBuildDeterministic(t *testing.T) {
	for _, skew := range []float64{0, 0.8, 1.5} {
		s := validZipf()
		s.Skew = skew
		a, err := BuildZipf(s)
		if err != nil {
			t.Fatalf("skew %v: %v", skew, err)
		}
		b, err := BuildZipf(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Code, b.Code) || !reflect.DeepEqual(a.Data, b.Data) || a.DataSize != b.DataSize {
			t.Errorf("skew %v: BuildZipf is not deterministic", skew)
		}
		if a.Name != s.SourceName() {
			t.Errorf("program name %q != source name %q", a.Name, s.SourceName())
		}
	}
}

// TestZipfSkewConcentrates pins the dial's meaning: raising Skew
// concentrates the per-iteration page sequence onto the first rank, and
// Skew 0 is (near-)uniform.
func TestZipfSkewConcentrates(t *testing.T) {
	const n = 4096
	flat := ZipfSpec{Pages: 8, Skew: 0}
	hot := ZipfSpec{Pages: 8, Skew: 1.5}
	count := func(ranks []int, r int) int {
		c := 0
		for _, x := range ranks {
			if x == r {
				c++
			}
		}
		return c
	}
	f0 := count(flat.zipfRanks(n), 0)
	h0 := count(hot.zipfRanks(n), 0)
	if f0 < n/16 || f0 > n/4 {
		t.Errorf("uniform draw put %d/%d on rank 0, want about %d", f0, n, n/8)
	}
	if h0 < n/3 {
		t.Errorf("skew 1.5 put only %d/%d on rank 0 — the dial does not concentrate", h0, n)
	}
}
