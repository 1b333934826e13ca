// Package parsec models the ten PARSEC 2.1 benchmarks of the paper's
// evaluation (§5.1) as workload specifications.
//
// The real binaries are unavailable to a pure-Go reproduction, so each
// model is calibrated to the *sharing characteristics* the paper measured
// for the real benchmark:
//
//   - the ratio of instrumented instruction executions to total
//     memory-referencing executions (Table 2, column 2 / column 1);
//   - the fraction of accesses that target shared pages (Table 2 column 3
//     / column 1 — the bars of Figure 6);
//   - the synchronization style (fine-grained locks, barriers, read-only
//     sharing, and canneal's unsynchronized Mersenne-Twister state, §5.3);
//   - the ALU-to-memory instruction balance, which sets how much a
//     conservative instrument-everything detector slows the program down.
//
// Dynamic instruction counts are scaled down (~10⁴–10⁵×) from the paper's
// simsmall runs so the whole suite executes in seconds; Table 2's
// reproduction reports the scaled counts and the scale-independent ratios.
package parsec

import (
	"fmt"

	"repro/internal/workload"
)

// PaperRow carries the paper's published numbers for one benchmark, used
// by the experiment harness to print paper-vs-measured comparisons.
type PaperRow struct {
	// Table 2 columns (dynamic counts on simsmall at 8 threads).
	MemRefs      uint64
	Instrumented uint64
	SharedAccess uint64
	Segfaults    uint64
	// Table 1 slowdowns (only fluidanimate and vips have published
	// numbers; zero elsewhere). Indexed by threads 2, 4, 8.
	FastTrack       map[int]float64
	AikidoFastTrack map[int]float64
}

// InstrumentedFrac returns Table 2's column2/column1 ratio.
func (p PaperRow) InstrumentedFrac() float64 {
	return float64(p.Instrumented) / float64(p.MemRefs)
}

// SharedFrac returns Table 2's column3/column1 ratio (Figure 6).
func (p PaperRow) SharedFrac() float64 {
	return float64(p.SharedAccess) / float64(p.MemRefs)
}

// Benchmark is one modeled PARSEC application.
type Benchmark struct {
	Name  string
	Spec  workload.Spec
	Paper PaperRow
}

// WithThreads returns a copy of the benchmark configured for n worker
// threads (Table 1 sweeps 2/4/8).
func (b Benchmark) WithThreads(n int) Benchmark {
	b.Spec.Threads = n
	return b
}

// WithScale multiplies the iteration count by f (workload size control for
// quick tests vs. full runs).
func (b Benchmark) WithScale(f float64) Benchmark {
	it := int(float64(b.Spec.Iters) * f)
	if it < 1 {
		it = 1
	}
	b.Spec.Iters = it
	return b
}

// Build compiles the benchmark's program.
func (b Benchmark) Build() (*Benchmark, error) {
	if err := b.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("parsec %s: %w", b.Name, err)
	}
	return &b, nil
}

// All returns the ten benchmark models at their default 8-worker,
// simsmall-scaled configuration, in the paper's Figure 5 order.
func All() []Benchmark {
	return []Benchmark{
		{
			Name: "freqmine",
			Spec: workload.Spec{
				Name: "freqmine", Threads: 8, Iters: 570,
				AluOps: 21, PrivateOps: 4, PrivatePages: 2,
				SharedOps: 6, SharedPeriod: 1, Locks: 4, SharedWritePct: 20,
				MixedOps: 1, MixedPeriod: 8,
			},
			Paper: PaperRow{MemRefs: 1_167_712_401, Instrumented: 742_195_956,
				SharedAccess: 651_009_521, Segfaults: 24_880},
		},
		{
			Name: "blackscholes",
			Spec: workload.Spec{
				Name: "blackscholes", Threads: 8, Iters: 450,
				AluOps: 95, PrivateOps: 13, PrivatePages: 4,
				SharedOps: 1, SharedPeriod: 1, Locks: 2,
			},
			Paper: PaperRow{MemRefs: 105_944_404, Instrumented: 7_395_315,
				SharedAccess: 7_340_038, Segfaults: 889},
		},
		{
			Name: "bodytrack",
			Spec: workload.Spec{
				Name: "bodytrack", Threads: 8, Iters: 270,
				AluOps: 78, PrivateOps: 18, PrivatePages: 2,
				SharedOps: 4, SharedPeriod: 1, Locks: 4,
				MixedOps: 1, MixedPeriod: 2,
				BarrierPeriod: 40,
			},
			Paper: PaperRow{MemRefs: 384_925_938, Instrumented: 83_514_877,
				SharedAccess: 77_116_382, Segfaults: 8_993},
		},
		{
			Name: "raytrace",
			Spec: workload.Spec{
				Name: "raytrace", Threads: 8, Iters: 2080,
				AluOps: 89, PrivateOps: 3, PrivatePages: 4,
				SharedOps: 1, SharedPeriod: 256, Locks: 1,
			},
			Paper: PaperRow{MemRefs: 13_186_394_771, Instrumented: 16_920_360,
				SharedAccess: 14_419_167, Segfaults: 23_350},
		},
		{
			Name: "swaptions",
			Spec: workload.Spec{
				Name: "swaptions", Threads: 8, Iters: 520,
				AluOps: 90, PrivateOps: 10, PrivatePages: 2,
				SharedOps: 1, SharedPeriod: 1, Locks: 2,
				MixedOps: 1, MixedPeriod: 3,
			},
			Paper: PaperRow{MemRefs: 350_009_582, Instrumented: 58_348_333,
				SharedAccess: 41_602_078, Segfaults: 1_778},
		},
		{
			Name: "fluidanimate",
			Spec: workload.Spec{
				Name: "fluidanimate", Threads: 8, Iters: 570,
				AluOps: 0, PrivateOps: 4, PrivatePages: 2,
				SharedOps: 5, SharedPeriod: 1, Locks: 4, SharedWritePct: 65,
				MixedOps: 2, MixedPeriod: 8,
				BarrierPeriod: 25,
			},
			Paper: PaperRow{MemRefs: 556_317_760, Instrumented: 356_317_897,
				SharedAccess: 267_758_255, Segfaults: 11_054,
				FastTrack:       map[int]float64{2: 55.79, 4: 127.62, 8: 178.60},
				AikidoFastTrack: map[int]float64{2: 48.11, 4: 110.65, 8: 184.33}},
		},
		{
			Name: "vips",
			Spec: workload.Spec{
				Name: "vips", Threads: 8, Iters: 310,
				AluOps: 78, PrivateOps: 15, PrivatePages: 4,
				SharedOps: 2, SharedPeriod: 1, Locks: 4,
				MixedOps: 1, MixedPeriod: 2,
				ROSharedOps: 2,
			},
			Paper: PaperRow{MemRefs: 1_044_161_383, Instrumented: 253_794_130,
				SharedAccess: 231_533_572, Segfaults: 10_227,
				FastTrack:       map[int]float64{2: 45.52, 4: 53.34, 8: 67.24},
				AikidoFastTrack: map[int]float64{2: 31.5, 4: 35.96, 8: 66.37}},
		},
		{
			Name: "x264",
			Spec: workload.Spec{
				Name: "x264", Threads: 8, Iters: 520,
				AluOps: 13, PrivateOps: 8, PrivatePages: 2,
				SharedOps: 3, SharedPeriod: 1, Locks: 4,
				MixedOps: 1, MixedPeriod: 2,
				BarrierPeriod: 30,
			},
			Paper: PaperRow{MemRefs: 241_456_020, Instrumented: 82_561_137,
				SharedAccess: 70_813_420, Segfaults: 32_616},
		},
		{
			Name: "canneal",
			Spec: workload.Spec{
				Name: "canneal", Threads: 8, Iters: 390,
				AluOps: 65, PrivateOps: 14, PrivatePages: 4,
				SharedOps: 1, SharedPeriod: 1, Locks: 4,
				ROSharedOps: 1,
				// The unsynchronized Mersenne-Twister RNG state (§5.3).
				RacyOps: 1, RacyPeriod: 16,
			},
			Paper: PaperRow{MemRefs: 560_635_087, Instrumented: 69_108_663,
				SharedAccess: 68_153_896, Segfaults: 23_049},
		},
		{
			Name: "streamcluster",
			Spec: workload.Spec{
				Name: "streamcluster", Threads: 8, Iters: 390,
				AluOps: 28, PrivateOps: 10, PrivatePages: 2,
				SharedOps: 3, SharedPeriod: 1, Locks: 4,
				ROSharedOps:   3,
				BarrierPeriod: 20,
			},
			Paper: PaperRow{MemRefs: 1_067_233_548, Instrumented: 403_953_097,
				SharedAccess: 396_265_668, Segfaults: 5_918},
		},
	}
}

// ByName returns the named benchmark model.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("parsec: unknown benchmark %q", name)
}

// Names lists the benchmark names in Figure 5 order.
func Names() []string {
	bs := All()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}
