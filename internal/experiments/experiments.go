// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated Aikido stack: Figure 5 (slowdowns),
// Figure 6 (shared-access fractions), Table 1 (thread-count sweep), and
// Table 2 (instrumentation statistics), plus extensions beyond the paper.
//
// Each experiment builds its model×mode matrix as runner cells, shards
// them across the concurrent runner's worker pool (Options.Workers), and
// reconciles rows in canonical matrix order — so results are identical
// for any worker count. Each experiment returns structured rows (for
// tests and benchmarks) and can render itself as text (for
// cmd/aikido-bench and EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/atomicity"
	"repro/internal/commgraph"
	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/lockset"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Options configures a harness run.
type Options struct {
	// Scale multiplies every benchmark's iteration count (1.0 = the
	// simsmall-scaled default; tests use smaller values).
	Scale float64
	// Threads overrides the worker count (0 = benchmark default, 8).
	Threads int
	// Workers is the runner pool size for the experiment sweep
	// (0 = runtime.NumCPU()). Results are identical at any value.
	Workers int
	// Analyses overrides the analysis selection for every
	// analysis-bearing cell (registry names). nil keeps each cell's
	// core.DefaultConfig selection, FastTrack; a non-nil empty slice runs
	// no analysis. Multiple names multiplex onto each cell's single
	// pass. CI diffs -analysis fasttrack against the default to pin the
	// single-analysis path byte-identical through the registry seam.
	Analyses []string
}

// DefaultOptions is the full-size harness configuration.
func DefaultOptions() Options { return Options{Scale: 1.0} }

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

// iters scales a generated workload's iteration count n by the options,
// never below 1.
func (o Options) iters(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// apply resizes a benchmark model per the options.
func (o Options) apply(b parsec.Benchmark) parsec.Benchmark {
	b = b.WithScale(o.Scale)
	if o.Threads > 0 {
		b = b.WithThreads(o.Threads)
	}
	return b
}

// sweep shards the cells across the configured worker pool and returns
// the measurements in cell order.
func (o Options) sweep(specs []runner.Spec) ([]runner.Measurement, error) {
	rep, err := runner.Sweep(specs, runner.Options{Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	return rep.Cells, nil
}

// races extracts a run's FastTrack races from its findings map (the
// deprecated Result.Races accessor's replacement — see fasttrack.RacesIn).
func races(r *core.Result) []fasttrack.Race {
	return fasttrack.RacesIn(r.Findings)
}

// cell is one matrix entry: benchmark b under cfg.
func cell(b parsec.Benchmark, label string, cfg core.Config) runner.Spec {
	return runner.Spec{Label: b.Name + "/" + label, Source: b.Spec, Config: cfg}
}

// sweepModes are the columns of every slowdown experiment, in
// reconciliation order: the native baseline first, then the detectors.
// Callers index cell strides by len(sweepModes), so adding a mode here
// keeps every reconciliation aligned.
var sweepModes = []struct {
	label string
	mode  core.Mode
}{
	{"native", core.ModeNative},
	{"FastTrack", core.ModeFastTrackFull},
	{"Aikido", core.ModeAikidoFastTrack},
}

// modeCells returns one cell per sweep mode for benchmark b. A non-nil
// analysis selection replaces the default in the analysis-bearing modes
// (native runs none).
func (o Options) modeCells(b parsec.Benchmark) []runner.Spec {
	specs := make([]runner.Spec, len(sweepModes))
	for i, m := range sweepModes {
		cfg := core.DefaultConfig(m.mode)
		if m.mode != core.ModeNative && o.Analyses != nil {
			cfg.Analyses = o.Analyses
		}
		specs[i] = cell(b, m.label, cfg)
	}
	return specs
}

// --- Figure 5 --------------------------------------------------------------

// Fig5Row is one benchmark's bar pair in Figure 5.
type Fig5Row struct {
	Name        string
	FastTrack   float64 // slowdown vs native
	Aikido      float64 // slowdown vs native
	Speedup     float64 // FastTrack / Aikido (>1 means Aikido wins)
	RacesFT     int
	RacesAikido int
}

// Figure5 measures the slowdown of FastTrack and Aikido-FastTrack over
// native for every benchmark, plus the geomean row.
func Figure5(o Options) ([]Fig5Row, error) {
	o = o.normalize()
	benches := parsec.All()
	var specs []runner.Spec
	for _, b := range benches {
		specs = append(specs, o.modeCells(o.apply(b))...)
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	var ftS, aftS []float64
	stride := len(sweepModes)
	for i, b := range benches {
		native, ft, aft := cells[stride*i].Res, cells[stride*i+1].Res, cells[stride*i+2].Res
		r := Fig5Row{
			Name:        b.Name,
			FastTrack:   ft.Slowdown(native),
			Aikido:      aft.Slowdown(native),
			RacesFT:     len(races(ft)),
			RacesAikido: len(races(aft)),
		}
		r.Speedup = r.FastTrack / r.Aikido
		rows = append(rows, r)
		ftS = append(ftS, r.FastTrack)
		aftS = append(aftS, r.Aikido)
	}
	geo := Fig5Row{
		Name:      "geomean",
		FastTrack: stats.Geomean(ftS),
		Aikido:    stats.Geomean(aftS),
	}
	geo.Speedup = geo.FastTrack / geo.Aikido
	rows = append(rows, geo)
	return rows, nil
}

// WriteFigure5 renders the Figure 5 reproduction.
func WriteFigure5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: slowdown vs native (lower is better)")
	fmt.Fprintf(w, "%-15s %12s %18s %10s\n", "benchmark", "FastTrack", "Aikido-FastTrack", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %11.2fx %17.2fx %9.2fx\n", r.Name, r.FastTrack, r.Aikido, r.Speedup)
	}
}

// --- Figure 6 --------------------------------------------------------------

// Fig6Row is one benchmark's shared-access bar in Figure 6.
type Fig6Row struct {
	Name     string
	Measured float64 // fraction of accesses targeting shared pages
	Paper    float64 // Table 2 column3/column1
}

// Figure6 measures the fraction of memory accesses that target shared
// pages under Aikido.
func Figure6(o Options) ([]Fig6Row, error) {
	o = o.normalize()
	benches := parsec.All()
	var specs []runner.Spec
	for _, b := range benches {
		specs = append(specs, cell(o.apply(b), "Aikido", core.DefaultConfig(core.ModeAikidoFastTrack)))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for i, b := range benches {
		rows = append(rows, Fig6Row{
			Name:     b.Name,
			Measured: cells[i].Res.SharedAccessFraction(),
			Paper:    b.Paper.SharedFrac(),
		})
	}
	return rows, nil
}

// WriteFigure6 renders the Figure 6 reproduction.
func WriteFigure6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: accesses to shared pages (percent of all memory accesses)")
	fmt.Fprintf(w, "%-15s %10s %10s\n", "benchmark", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %9.2f%% %9.2f%%\n", r.Name, 100*r.Measured, 100*r.Paper)
	}
}

// --- Table 1 ---------------------------------------------------------------

// Table1Cell is one (benchmark, threads) measurement pair.
type Table1Cell struct {
	Name      string
	Threads   int
	FastTrack float64
	Aikido    float64
	// Paper values (0 when the paper does not publish the cell).
	PaperFastTrack float64
	PaperAikido    float64
}

// table1Sweep is Table 1's matrix shape: fluidanimate and vips over
// 2/4/8 threads, as in the paper.
var table1Sweep = struct {
	names   []string
	threads []int
}{[]string{"fluidanimate", "vips"}, []int{2, 4, 8}}

// Table1 sweeps fluidanimate and vips over 2/4/8 threads, as in the paper.
func Table1(o Options) ([]Table1Cell, error) {
	o = o.normalize()
	var specs []runner.Spec
	var shape []Table1Cell
	for _, name := range table1Sweep.names {
		b, err := parsec.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, threads := range table1Sweep.threads {
			opt := o
			opt.Threads = threads
			specs = append(specs, opt.modeCells(opt.apply(b))...)
			shape = append(shape, Table1Cell{
				Name:           name,
				Threads:        threads,
				PaperFastTrack: b.Paper.FastTrack[threads],
				PaperAikido:    b.Paper.AikidoFastTrack[threads],
			})
		}
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	stride := len(sweepModes)
	for i := range shape {
		native, ft, aft := cells[stride*i].Res, cells[stride*i+1].Res, cells[stride*i+2].Res
		shape[i].FastTrack = ft.Slowdown(native)
		shape[i].Aikido = aft.Slowdown(native)
	}
	return shape, nil
}

// WriteTable1 renders the Table 1 reproduction.
func WriteTable1(w io.Writer, cells []Table1Cell) {
	fmt.Fprintln(w, "Table 1: slowdown vs native at 2/4/8 threads (paper values in parens)")
	fmt.Fprintf(w, "%-14s %8s %22s %22s\n", "benchmark", "threads", "FastTrack", "Aikido-FastTrack")
	for _, c := range cells {
		fmt.Fprintf(w, "%-14s %8d %12.2fx (%6.2fx) %12.2fx (%6.2fx)\n",
			c.Name, c.Threads, c.FastTrack, c.PaperFastTrack, c.Aikido, c.PaperAikido)
	}
}

// --- Table 2 ---------------------------------------------------------------

// Table2Row is one benchmark's instrumentation statistics.
type Table2Row struct {
	Name string
	// Measured dynamic counts (scaled-down workloads).
	MemRefs      uint64
	Instrumented uint64
	SharedAccess uint64
	Segfaults    uint64
	// Scale-independent ratios, measured and from the paper.
	InstrFrac, PaperInstrFrac   float64
	SharedFrac, PaperSharedFrac float64
}

// Table2 collects instrumentation statistics per benchmark and the geomean
// reduction in instructions needing instrumentation (paper: 6.75×).
func Table2(o Options) ([]Table2Row, float64, error) {
	o = o.normalize()
	benches := parsec.All()
	var specs []runner.Spec
	for _, b := range benches {
		specs = append(specs, cell(o.apply(b), "Aikido", core.DefaultConfig(core.ModeAikidoFastTrack)))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, 0, err
	}
	var rows []Table2Row
	var reductions []float64
	for i, b := range benches {
		aft := cells[i].Res
		r := Table2Row{
			Name:            b.Name,
			MemRefs:         aft.Engine.MemRefs,
			Instrumented:    aft.Engine.InstrumentedExecs,
			SharedAccess:    aft.SD.SharedPageAccesses,
			Segfaults:       aft.HV.AikidoFaults,
			PaperInstrFrac:  b.Paper.InstrumentedFrac(),
			PaperSharedFrac: b.Paper.SharedFrac(),
		}
		if r.MemRefs > 0 {
			r.InstrFrac = float64(r.Instrumented) / float64(r.MemRefs)
			r.SharedFrac = float64(r.SharedAccess) / float64(r.MemRefs)
		}
		if r.Instrumented > 0 {
			reductions = append(reductions, float64(r.MemRefs)/float64(r.Instrumented))
		}
		rows = append(rows, r)
	}
	return rows, stats.Geomean(reductions), nil
}

// WriteTable2 renders the Table 2 reproduction.
func WriteTable2(w io.Writer, rows []Table2Row, reduction float64) {
	fmt.Fprintln(w, "Table 2: instrumentation statistics (counts from scaled-down workloads;")
	fmt.Fprintln(w, "ratios are scale-independent and compared against the paper)")
	fmt.Fprintf(w, "%-14s %12s %12s %12s %9s %10s %8s %10s %8s\n",
		"benchmark", "mem refs", "instr'd", "shared acc", "segv",
		"instr%", "paper%", "shared%", "paper%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %12d %12d %9d %9.2f%% %7.2f%% %9.2f%% %7.2f%%\n",
			r.Name, r.MemRefs, r.Instrumented, r.SharedAccess, r.Segfaults,
			100*r.InstrFrac, 100*r.PaperInstrFrac,
			100*r.SharedFrac, 100*r.PaperSharedFrac)
	}
	fmt.Fprintf(w, "geomean reduction in instrumented memory instructions: %.2fx (paper: 6.75x)\n", reduction)
}

// --- Extension: detector comparison (beyond the paper) ---------------------

// DetectorRow compares one hosted analysis configuration on the racy
// canneal model.
type DetectorRow struct {
	Variant string
	// Slow is the slowdown vs native. Rows extracted from the multiplexed
	// run share the cost of that single pass.
	Slow float64
	// Findings is the number of distinct races/warnings/violations.
	Findings int
	// Analyzed is how many access events the analysis processed.
	Analyzed uint64
	// FoundRNGRace reports whether the §5.3 RNG race was caught.
	FoundRNGRace bool
	// Multiplexed marks rows that came out of the single multiplexed
	// Aikido pass (one execution hosting every registry analysis at
	// once), rather than a dedicated run.
	Multiplexed bool
}

// muxedDetectors is the analysis set the detectors extension multiplexes
// onto one Aikido pass.
var muxedDetectors = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// ExtensionDetectors runs the canneal model (with its §5.3 RNG race) under
// the hosted analyses. The Aikido-hosted detectors — FastTrack, LockSet,
// the atomicity checker, the communication-graph profiler — all ride ONE
// multiplexed execution instead of one full run each: the sweep is native,
// full FastTrack and a single mux cell, and the per-analysis rows are
// unpacked from the mux run's findings map. It quantifies the paper's
// positioning: Aikido finds the races full FastTrack finds, missing only
// the first-access window, at a fraction of its cost; LockSet trades
// precision differently — and the framework amortizes one DBI+sharing
// pass over all of them.
func ExtensionDetectors(o Options) ([]DetectorRow, error) {
	o = o.normalize()
	b, err := parsec.ByName("canneal")
	if err != nil {
		return nil, err
	}
	bb := o.apply(b)

	muxCfg := core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses(muxedDetectors...)
	specs := []runner.Spec{
		cell(bb, "native", core.DefaultConfig(core.ModeNative)),
		cell(bb, "fasttrack-full", core.DefaultConfig(core.ModeFastTrackFull)),
		cell(bb, "aikido-mux", muxCfg),
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	native := cells[0].Res

	rows := []DetectorRow{
		detectorRow("fasttrack-full", cells[1].Res, cells[1].Res.AnalysisFindings("fasttrack"), native, false),
	}
	mux := cells[2].Res
	for _, name := range muxedDetectors {
		rows = append(rows,
			detectorRow("aikido:"+name, mux, mux.AnalysisFindings(name), native, true))
	}
	return rows, nil
}

// detectorRow distills one analysis's findings into a comparison row.
func detectorRow(label string, res *core.Result, f analysis.Findings, native *core.Result, muxed bool) DetectorRow {
	row := DetectorRow{Variant: label, Slow: res.Slowdown(native), Multiplexed: muxed}
	if f == nil {
		return row
	}
	row.Findings = f.Len()
	// Unpack the typed findings for the analyzed-event count and the
	// §5.3 RNG-race check.
	switch tf := f.(type) {
	case *fasttrack.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, r := range tf.Races {
			if rngRaceAddr(r.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *lockset.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, w := range tf.Warnings {
			if rngRaceAddr(w.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *atomicity.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
		for _, v := range tf.Violations {
			if rngRaceAddr(v.Addr) {
				row.FoundRNGRace = true
			}
		}
	case *commgraph.Findings:
		row.Analyzed = tf.Counters.Reads + tf.Counters.Writes
	}
	return row
}

// rngRaceAddr reports whether addr lies on the canneal model's racy page
// (the second page of the data segment: shared region first, then the racy
// page — see workload.Build's layout).
func rngRaceAddr(addr uint64) bool {
	// Layout: shared region occupies Locks pages from DataBase; the racy
	// page follows it. canneal has 4 locks.
	const racyBase = 0x1000_0000 + 4*4096
	return addr >= racyBase && addr < racyBase+4096
}

// --- Extension: thread scaling (beyond the paper's 2/4/8 sweep) ------------

// ScalingPoint is one (benchmark, threads) pair of slowdowns.
type ScalingPoint struct {
	Name      string
	Threads   int
	FastTrack float64
	Aikido    float64
}

// ExtensionScaling extends Table 1's sweep to 1–16 worker threads on a
// low-sharing (blackscholes), mid-sharing (vips) and high-sharing
// (fluidanimate) model, exposing where the Aikido/FastTrack crossover moves
// as contention grows.
func ExtensionScaling(o Options) ([]ScalingPoint, error) {
	o = o.normalize()
	names := []string{"blackscholes", "vips", "fluidanimate"}
	threadCounts := []int{1, 2, 4, 8, 16}
	var specs []runner.Spec
	var pts []ScalingPoint
	for _, name := range names {
		b, err := parsec.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, threads := range threadCounts {
			opt := o
			opt.Threads = threads
			specs = append(specs, opt.modeCells(opt.apply(b))...)
			pts = append(pts, ScalingPoint{Name: name, Threads: threads})
		}
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	stride := len(sweepModes)
	for i := range pts {
		native, ft, aft := cells[stride*i].Res, cells[stride*i+1].Res, cells[stride*i+2].Res
		pts[i].FastTrack = ft.Slowdown(native)
		pts[i].Aikido = aft.Slowdown(native)
	}
	return pts, nil
}

// WriteExtensionScaling renders the sweep.
func WriteExtensionScaling(w io.Writer, pts []ScalingPoint) {
	fmt.Fprintln(w, "Extension: thread scaling 1-16 (slowdown vs native)")
	fmt.Fprintf(w, "%-14s %8s %12s %18s %8s\n", "benchmark", "threads", "FastTrack", "Aikido-FastTrack", "ratio")
	for _, p := range pts {
		fmt.Fprintf(w, "%-14s %8d %11.2fx %17.2fx %8.2f\n",
			p.Name, p.Threads, p.FastTrack, p.Aikido, p.FastTrack/p.Aikido)
	}
}

// WriteExtensionDetectors renders the comparison.
func WriteExtensionDetectors(w io.Writer, rows []DetectorRow) {
	fmt.Fprintln(w, "Extension: hosted analyses on canneal (racy RNG state, §5.3)")
	fmt.Fprintln(w, "(\"mux\" rows share ONE multiplexed Aikido pass; its slowdown is the")
	fmt.Fprintln(w, "whole pass's — N analyses amortize a single DBI+sharing execution)")
	fmt.Fprintf(w, "%-22s %6s %10s %10s %12s %10s\n", "detector", "pass", "slowdown", "findings", "analyzed", "RNG race")
	for _, r := range rows {
		found := "missed"
		if r.FoundRNGRace {
			found = "caught"
		}
		pass := "own"
		if r.Multiplexed {
			pass = "mux"
		}
		fmt.Fprintf(w, "%-22s %6s %9.2fx %10d %12d %10s\n", r.Variant, pass, r.Slow, r.Findings, r.Analyzed, found)
	}
}
