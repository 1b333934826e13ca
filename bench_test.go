// Package repro_test is the benchmark harness that regenerates the paper's
// evaluation under `go test -bench`. One benchmark family exists per table
// and figure (Figure 5, Figure 6, Table 1, Table 2), plus ablations.
//
// Wall-clock ns/op measures the *simulator*; the paper's metrics are the
// reported custom metrics:
//
//	slowdown-x    simulated slowdown vs native (Figures 5, Table 1)
//	shared-pct    share of accesses on shared pages (Figure 6)
//	reduction-x   instrumentation reduction (Table 2)
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/memcheck"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/spbags"
	"repro/internal/workload"
)

// benchScale keeps -bench runs quick while large enough to amortize
// startup costs; cmd/aikido-bench runs the full-scale version.
const benchScale = 0.5

func runMode(b *testing.B, bench parsec.Benchmark, mode core.Mode) *core.Result {
	b.Helper()
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Run(prog, core.DefaultConfig(mode))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFigure5 regenerates Figure 5: the slowdown of FastTrack and
// Aikido-FastTrack over native execution for each PARSEC model.
func BenchmarkFigure5(b *testing.B) {
	for _, bench := range parsec.All() {
		bench := bench.WithScale(benchScale)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			b.Fatal(err)
		}
		native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name+"/FastTrack", func(b *testing.B) {
			res := runMode(b, bench, core.ModeFastTrackFull)
			b.ReportMetric(res.Slowdown(native), "slowdown-x")
		})
		b.Run(bench.Name+"/Aikido", func(b *testing.B) {
			res := runMode(b, bench, core.ModeAikidoFastTrack)
			b.ReportMetric(res.Slowdown(native), "slowdown-x")
		})
	}
}

// matrixSpecs is the full Figure 5 model×mode matrix (every PARSEC model
// under native, FastTrack-full and Aikido-FastTrack) as runner cells.
func matrixSpecs(scale float64) []runner.Spec {
	var specs []runner.Spec
	for _, bench := range parsec.All() {
		bench = bench.WithScale(scale)
		for _, m := range []core.Mode{core.ModeNative, core.ModeFastTrackFull, core.ModeAikidoFastTrack} {
			specs = append(specs, runner.Spec{
				Label:  bench.Name + "/" + m.String(),
				Source: bench.Spec,
				Config: core.DefaultConfig(m),
			})
		}
	}
	return specs
}

// BenchmarkMatrix measures the wall-clock of the complete model×mode sweep
// through the concurrent runner at increasing pool sizes. The reported
// speedup-x metric is the sequential (workers=1) wall-clock divided by
// this pool size's: near-linear up to min(workers, cores) because cells
// are fully isolated (no shared shadow state, no locks on the measurement
// path). The simulated results are byte-identical at every pool size —
// TestSweepByteIdenticalAcrossWorkers in internal/runner enforces it.
func BenchmarkMatrix(b *testing.B) {
	specs := matrixSpecs(benchScale)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	// The workers=1 sub-benchmark runs first and its own timing is the
	// sequential reference for the later pool sizes' speedup-x metric
	// (reported only when the sequential leg ran, i.e. not under a
	// -bench filter that skips it).
	var seqNsOp float64
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Sweep(specs, runner.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				seqNsOp = nsOp
			}
			if seqNsOp > 0 {
				b.ReportMetric(seqNsOp/nsOp, "speedup-x")
			}
			b.ReportMetric(float64(len(specs)), "cells")
		})
	}
}

// BenchmarkFigure6 regenerates Figure 6: the percentage of memory accesses
// that target shared pages.
func BenchmarkFigure6(b *testing.B) {
	for _, bench := range parsec.All() {
		bench := bench.WithScale(benchScale)
		b.Run(bench.Name, func(b *testing.B) {
			res := runMode(b, bench, core.ModeAikidoFastTrack)
			b.ReportMetric(100*res.SharedAccessFraction(), "shared-pct")
			b.ReportMetric(100*bench.Paper.SharedFrac(), "paper-pct")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: fluidanimate and vips at 2, 4 and 8
// worker threads under both detectors.
func BenchmarkTable1(b *testing.B) {
	for _, name := range []string{"fluidanimate", "vips"} {
		bench, err := parsec.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, threads := range []int{2, 4, 8} {
			tb := bench.WithThreads(threads) // full scale: Table 1 needs amortization
			prog, err := workload.Build(tb.Spec)
			if err != nil {
				b.Fatal(err)
			}
			native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
			if err != nil {
				b.Fatal(err)
			}
			for mode, label := range map[core.Mode]string{
				core.ModeFastTrackFull:   "FastTrack",
				core.ModeAikidoFastTrack: "Aikido",
			} {
				mode, label := mode, label
				b.Run(benchName(name, threads, label), func(b *testing.B) {
					res := runMode(b, tb, mode)
					b.ReportMetric(res.Slowdown(native), "slowdown-x")
				})
			}
		}
	}
}

func benchName(name string, threads int, mode string) string {
	return name + "/t" + string(rune('0'+threads)) + "/" + mode
}

// BenchmarkTable2 regenerates Table 2: instrumentation statistics and the
// per-benchmark reduction in instructions that need instrumentation.
func BenchmarkTable2(b *testing.B) {
	for _, bench := range parsec.All() {
		bench := bench.WithScale(benchScale)
		b.Run(bench.Name, func(b *testing.B) {
			res := runMode(b, bench, core.ModeAikidoFastTrack)
			if res.Engine.InstrumentedExecs > 0 {
				b.ReportMetric(float64(res.Engine.MemRefs)/float64(res.Engine.InstrumentedExecs), "reduction-x")
			}
			b.ReportMetric(float64(res.HV.AikidoFaults), "segfaults")
		})
	}
}

// BenchmarkAblationMirror quantifies what mirror pages buy: Aikido with
// mirror redirection vs the unprotect/reprotect strategy (§7.2 comparison).
func BenchmarkAblationMirror(b *testing.B) {
	bench, err := parsec.ByName("x264")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(benchScale)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mirror", func(b *testing.B) {
		res := runMode(b, bench, core.ModeAikidoFastTrack)
		b.ReportMetric(res.Slowdown(native), "slowdown-x")
	})
	b.Run("no-mirror", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
			cfg.Aikido.NoMirror = true
			var err error
			res, err = core.Run(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Slowdown(native), "slowdown-x")
	})
}

// BenchmarkExtensionScaling measures the Aikido-vs-FastTrack ratio at 16
// worker threads on the high-sharing model — the beyond-the-paper point
// where mirror contention has fully reversed the advantage.
func BenchmarkExtensionScaling(b *testing.B) {
	bench, err := parsec.ByName("fluidanimate")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithThreads(16).WithScale(benchScale)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fluidanimate/t16/FastTrack", func(b *testing.B) {
		res := runMode(b, bench, core.ModeFastTrackFull)
		b.ReportMetric(res.Slowdown(native), "slowdown-x")
	})
	b.Run("fluidanimate/t16/Aikido", func(b *testing.B) {
		res := runMode(b, bench, core.ModeAikidoFastTrack)
		b.ReportMetric(res.Slowdown(native), "slowdown-x")
	})
}

// BenchmarkAblationDBI measures the DynamoRIO-only floor under every model:
// the overhead Aikido pays before any analysis runs.
func BenchmarkAblationDBI(b *testing.B) {
	for _, bench := range parsec.All() {
		bench := bench.WithScale(benchScale)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			b.Fatal(err)
		}
		native, err := core.Run(prog, core.DefaultConfig(core.ModeNative))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			res := runMode(b, bench, core.ModeDBI)
			b.ReportMetric(res.Slowdown(native), "slowdown-x")
		})
	}
}

// BenchmarkExtensionNondeterminator measures the SP-bags determinacy check
// (serial DFS execution + union-find bags) on a fork-join workload.
func BenchmarkExtensionNondeterminator(b *testing.B) {
	prog, err := workload.BuildForkJoin(workload.ForkJoinSpec{
		Name: "fj-bench", Elems: 256, LeafSize: 16, RacyCounter: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("spbags", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(spbags.Kind))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.AnalysisFindings(spbags.Kind).Len()), "races")
	})
	b.Run("fasttrack", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(fasttrack.RacesIn(res.Findings))), "races")
	})
}

// BenchmarkMemcheck measures the Umbra-hosted memory checker — the
// conservative every-access shadow tool whose cost class Figure 5's
// FastTrack bars represent.
func BenchmarkMemcheck(b *testing.B) {
	bench, err := parsec.ByName("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(benchScale)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(memcheck.Kind)
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
