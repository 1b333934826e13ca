// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated Aikido stack: Figure 5 (slowdowns),
// Figure 6 (shared-access fractions), Table 1 (thread-count sweep), and
// Table 2 (instrumentation statistics), plus extensions beyond the paper.
//
// An experiment is a list of runner cells and a printer over their
// results, and All lists every experiment. Run shards an experiment's
// cells across the concurrent runner's worker pool (Options.Workers) and
// returns the results in cell order, so every table is identical for any
// worker count. WriteText prints the experiment's table (cmd/aikido-bench);
// WriteJSON writes one record per cell, its label and its whole
// core.Result (aikido-bench -json).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
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
	// pass. cmd/aikido-bench's TestEquivalenceLegs diffs -analysis
	// fasttrack against the default to pin the single-analysis path
	// byte-identical through the registry seam.
	Analyses []string
}

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

// Experiment is one table or figure: the cells it runs and how it prints
// their results.
type Experiment struct {
	// Name is the experiment's -experiment value.
	Name string
	// cells lists the experiment's runs, in the order print reads them.
	cells func(Options) []runner.Spec
	// print renders the table from the results of cells, in cell order.
	print func(io.Writer, Options, []*core.Result)
}

// All lists every experiment, in the order -experiment all prints them.
var All = []Experiment{
	{"fig5", fig5Sweep.cells, printFig5},
	{"fig6", aikidoCells, printFig6},
	{"table1", table1Sweep.cells, printTable1},
	{"table2", aikidoCells, printTable2},
	{"detectors", detectorCells, printDetectors},
	{"muxbench", muxCells, printMux},
	{"epochs", epochCells, printEpochs},
	{"scaling", scalingSweep.cells, printScaling},
	{"nondet", nondetCells, printNondet},
}

// Run sweeps the experiment's cells across o.Workers runner workers and
// returns their results in cell order, or the first failed cell's error.
func (e Experiment) Run(o Options) ([]*core.Result, error) {
	o = o.normalize()
	rep := runner.Sweep(e.cells(o), o.Workers)
	if len(rep.Failed) > 0 {
		return nil, rep.Failed[0]
	}
	res := make([]*core.Result, len(rep.Cells))
	for i, m := range rep.Cells {
		res[i] = m.Res
	}
	return res, nil
}

// WriteText prints the experiment's table from the results Run returned
// for the same options.
func (e Experiment) WriteText(w io.Writer, o Options, res []*core.Result) {
	e.print(w, o.normalize(), res)
}

// record is one cell as WriteJSON writes it.
type record struct {
	Experiment string       `json:"experiment"`
	Label      string       `json:"label"`
	Result     *core.Result `json:"result"`
}

// WriteJSON writes one JSON line per cell, in cell order: the
// experiment's name, the cell's label and its whole core.Result, from the
// results Run returned for the same options. The bytes depend only on the
// options, never on Options.Workers.
func (e Experiment) WriteJSON(w io.Writer, o Options, res []*core.Result) error {
	enc := json.NewEncoder(w)
	for i, s := range e.cells(o.normalize()) {
		if err := enc.Encode(record{e.Name, s.Label, res[i]}); err != nil {
			return err
		}
	}
	return nil
}

// cell is one matrix entry: benchmark b under cfg.
func cell(b parsec.Benchmark, label string, cfg core.Config) runner.Spec {
	return runner.Spec{Label: b.Name + "/" + label, Source: b.Spec, Config: cfg}
}

// bench returns the named model; the experiments name only models that
// exist.
func bench(name string) parsec.Benchmark {
	b, err := parsec.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// --- Figure 5, Table 1 and the thread-scaling extension --------------------

// ThreadPoint is one model at one thread count: its FastTrack-full and
// Aikido-FastTrack slowdowns over native.
type ThreadPoint struct {
	Name string
	// Threads is the point's worker count; 0 (Figure 5) is
	// Options.Threads, or the model's default.
	Threads   int
	FastTrack float64
	Aikido    float64
}

// sweepModes are the cells of every point of a threadSweep, in the order
// points reads them: the native baseline first, then the detectors.
var sweepModes = []struct {
	label string
	mode  core.Mode
}{
	{"native", core.ModeNative},
	{"FastTrack", core.ModeFastTrackFull},
	{"Aikido", core.ModeAikidoFastTrack},
}

// threadSweep is a models × thread counts matrix, model-major, with one
// cell per sweep mode at each point.
type threadSweep struct {
	names   []string
	threads []int
}

var (
	// fig5Sweep is every model at Options.Threads.
	fig5Sweep = threadSweep{parsec.Names(), []int{0}}
	// table1Sweep is Table 1's shape: fluidanimate and vips over 2/4/8
	// threads, as in the paper.
	table1Sweep = threadSweep{[]string{"fluidanimate", "vips"}, []int{2, 4, 8}}
	// scalingSweep extends Table 1's sweep to 1–16 worker threads on a
	// low-sharing (blackscholes), mid-sharing (vips) and high-sharing
	// (fluidanimate) model, exposing where the Aikido/FastTrack
	// crossover moves as contention grows.
	scalingSweep = threadSweep{[]string{"blackscholes", "vips", "fluidanimate"}, []int{1, 2, 4, 8, 16}}
)

// cells returns the sweep's cells. A non-nil analysis selection replaces
// the default in the analysis-bearing modes (native runs none).
func (s threadSweep) cells(o Options) []runner.Spec {
	var specs []runner.Spec
	for _, name := range s.names {
		for _, threads := range s.threads {
			opt, label := o, name
			if threads > 0 {
				opt.Threads, label = threads, fmt.Sprintf("%s/threads=%d", name, threads)
			}
			b := opt.apply(bench(name))
			for _, m := range sweepModes {
				cfg := core.DefaultConfig(m.mode)
				if m.mode != core.ModeNative && o.Analyses != nil {
					cfg.Analyses = o.Analyses
				}
				specs = append(specs, runner.Spec{Label: label + "/" + m.label, Source: b.Spec, Config: cfg})
			}
		}
	}
	return specs
}

// points reads the results of cells, one native/FastTrack/Aikido triple
// per point, as slowdowns over native.
func (s threadSweep) points(res []*core.Result) []ThreadPoint {
	var pts []ThreadPoint
	for _, name := range s.names {
		for _, threads := range s.threads {
			native, ft, aikido := res[0], res[1], res[2]
			res = res[len(sweepModes):]
			pts = append(pts, ThreadPoint{Name: name, Threads: threads,
				FastTrack: ft.Slowdown(native), Aikido: aikido.Slowdown(native)})
		}
	}
	return pts
}

// fig5Rows is Figure 5's bars: every model's slowdowns, then their
// geomeans.
func fig5Rows(res []*core.Result) []ThreadPoint {
	pts := fig5Sweep.points(res)
	var ft, aikido []float64
	for _, p := range pts {
		ft, aikido = append(ft, p.FastTrack), append(aikido, p.Aikido)
	}
	return append(pts, ThreadPoint{Name: "geomean", FastTrack: stats.Geomean(ft), Aikido: stats.Geomean(aikido)})
}

func printFig5(w io.Writer, _ Options, res []*core.Result) {
	fmt.Fprintln(w, "Figure 5: slowdown vs native (lower is better)")
	fmt.Fprintf(w, "%-15s %12s %18s %10s\n", "benchmark", "FastTrack", "Aikido-FastTrack", "speedup")
	for _, p := range fig5Rows(res) {
		fmt.Fprintf(w, "%-15s %11.2fx %17.2fx %9.2fx\n", p.Name, p.FastTrack, p.Aikido, p.FastTrack/p.Aikido)
	}
}

func printTable1(w io.Writer, _ Options, res []*core.Result) {
	fmt.Fprintln(w, "Table 1: slowdown vs native at 2/4/8 threads (paper values in parens)")
	fmt.Fprintf(w, "%-14s %8s %22s %22s\n", "benchmark", "threads", "FastTrack", "Aikido-FastTrack")
	for _, p := range table1Sweep.points(res) {
		paper := bench(p.Name).Paper
		fmt.Fprintf(w, "%-14s %8d %12.2fx (%6.2fx) %12.2fx (%6.2fx)\n",
			p.Name, p.Threads, p.FastTrack, paper.FastTrack[p.Threads], p.Aikido, paper.AikidoFastTrack[p.Threads])
	}
}

func printScaling(w io.Writer, _ Options, res []*core.Result) {
	fmt.Fprintln(w, "Extension: thread scaling 1-16 (slowdown vs native)")
	fmt.Fprintf(w, "%-14s %8s %12s %18s %8s\n", "benchmark", "threads", "FastTrack", "Aikido-FastTrack", "ratio")
	for _, p := range scalingSweep.points(res) {
		fmt.Fprintf(w, "%-14s %8d %11.2fx %17.2fx %8.2f\n",
			p.Name, p.Threads, p.FastTrack, p.Aikido, p.FastTrack/p.Aikido)
	}
}

// --- Figure 6 and Table 2 --------------------------------------------------

// aikidoCells runs every model once under Aikido-FastTrack's default
// configuration; Figure 6 and Table 2 read the same ten cells.
func aikidoCells(o Options) []runner.Spec {
	var specs []runner.Spec
	for _, b := range parsec.All() {
		specs = append(specs, cell(o.apply(b), "Aikido", core.DefaultConfig(core.ModeAikidoFastTrack)))
	}
	return specs
}

// Table2Row is one benchmark's instrumentation statistics.
type Table2Row struct {
	Name string
	// Measured dynamic counts (scaled-down workloads).
	MemRefs      uint64
	Instrumented uint64
	SharedAccess uint64
	Segfaults    uint64
	// Scale-independent ratios, measured and from the paper. SharedFrac
	// and PaperSharedFrac are Figure 6's bars.
	InstrFrac, PaperInstrFrac   float64
	SharedFrac, PaperSharedFrac float64
}

// table2Rows reads aikidoCells' results as instrumentation statistics,
// with the geomean reduction in instructions needing instrumentation
// (paper: 6.75×).
func table2Rows(res []*core.Result) ([]Table2Row, float64) {
	var rows []Table2Row
	var reductions []float64
	for i, b := range parsec.All() {
		aft := res[i]
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
	return rows, stats.Geomean(reductions)
}

func printFig6(w io.Writer, _ Options, res []*core.Result) {
	rows, _ := table2Rows(res)
	fmt.Fprintln(w, "Figure 6: accesses to shared pages (percent of all memory accesses)")
	fmt.Fprintf(w, "%-15s %10s %10s\n", "benchmark", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %9.2f%% %9.2f%%\n", r.Name, 100*r.SharedFrac, 100*r.PaperSharedFrac)
	}
}

func printTable2(w io.Writer, _ Options, res []*core.Result) {
	rows, reduction := table2Rows(res)
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
