// Command aikido-bench regenerates the paper's evaluation — Figure 5,
// Figure 6, Table 1, Table 2 — plus the extension experiments (detector
// comparison, mux amortization, epoch demotion, thread scaling,
// Nondeterminator vs FastTrack).
//
// Usage:
//
//	aikido-bench [-experiment all|fig5|fig6|table1|table2|detectors|
//	              muxbench|epochs|scaling|nondet]
//	             [-scale F] [-threads N] [-workers N] [-json FILE]
//	             [-analysis NAME[,NAME...]]
//
// -analysis selects the analyses every analysis-bearing cell runs (registry
// names, multiplexed onto one pass per cell); CI diffs the -json report at
// "-analysis fasttrack" (and the "ft" alias) against the default to pin the
// single-analysis path byte-identical through the registry seam. The
// muxbench experiment measures N sequential single-analysis Aikido passes
// against ONE multiplexed pass hosting the same N analyses. The empty
// value keeps each cell's default; a value that names no analysis, only
// commas and spaces, or that names an unknown analysis or one analysis
// twice, exits 2 before any cell runs.
//
// Every model×mode experiment matrix is sharded across -workers concurrent
// runner workers (default: all CPUs); results are identical at any worker
// count. The nondet extension runs sequentially and ignores -workers.
//
// With -json, the Figure 5 workload matrix runs once per (model, mode) and
// a machine-readable report of its simulated results is written to FILE
// ("-" for stdout) instead of the text experiments. The report's bytes
// depend only on the flags, never on -workers; CI diffs -workers 1 against
// -workers 8. aikido-bench reports simulated results only; wall-clock time
// is measured by bench/aikido-measure (see docs/benchmarking.md).
//
// Every Aikido cell runs with epoch demotion, core.DefaultConfig's
// default; it never fires on the PARSEC models. The epochs experiment
// measures its win against the terminal-Shared machine on the
// phased/migratory workload suite, where it does fire.
//
// An -experiment value that names no experiment exits 2 and lists the
// valid names, and so does a -scale that is not a finite positive number
// or a negative -threads.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

// experimentNames are the valid -experiment values: "all" runs every
// experiment after it in this order.
var experimentNames = []string{"all", "fig5", "fig6", "table1", "table2",
	"detectors", "muxbench", "epochs", "scaling", "nondet"}

// checkExperiment rejects an -experiment value that names no experiment,
// which would otherwise run nothing and exit 0.
func checkExperiment(name string) error {
	if slices.Contains(experimentNames, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(experimentNames, ", "))
}

// checkScale rejects a -scale that is not a finite positive number: NaN
// and ±Inf turn into meaningless iteration counts, and a value <= 0 would
// silently run at scale 1.
func checkScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return fmt.Errorf("invalid -scale %v (want a finite number > 0)", scale)
	}
	return nil
}

// checkThreads rejects a negative -threads; 0 keeps each benchmark's
// default thread count.
func checkThreads(threads int) error {
	if threads < 0 {
		return fmt.Errorf("invalid -threads %d (want 0 for the benchmark default, or a positive count)", threads)
	}
	return nil
}

// checkAnalyses parses -analysis. The empty value keeps each cell's
// default selection; a non-empty value that names no analysis (only
// commas and spaces) is rejected rather than silently running that
// default, and so is one that the analysis registry would reject.
func checkAnalyses(s string) ([]string, error) {
	names := analysis.ParseList(s)
	if names == nil && s != "" {
		return nil, fmt.Errorf("-analysis %q names no analysis (omit -analysis, or pass \"\", for the default FastTrack)", s)
	}
	if err := analysis.Check(names); err != nil {
		return nil, fmt.Errorf("-analysis %q: %w", s, err)
	}
	return names, nil
}

func main() {
	exp := flag.String("experiment", "all", "which experiment: "+strings.Join(experimentNames, ", "))
	scale := flag.Float64("scale", 1.0, "workload size multiplier (1.0 = simsmall-scaled default)")
	threads := flag.Int("threads", 0, "override worker threads (0 = benchmark default, 8)")
	workers := flag.Int("workers", runtime.NumCPU(), "runner pool size for the experiment sweep (results are identical at any value)")
	jsonOut := flag.String("json", "", "write a machine-readable bench report to this file (\"-\" = stdout) instead of running text experiments")
	analyses := flag.String("analysis", "", "comma-separated analyses for every analysis-bearing cell (registry names; empty = default FastTrack)")
	flag.Parse()

	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
		os.Exit(2)
	}
	if err := checkScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
		os.Exit(2)
	}
	if err := checkThreads(*threads); err != nil {
		fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
		os.Exit(2)
	}
	names, err := checkAnalyses(*analyses)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
		os.Exit(2)
	}
	o := experiments.Options{Scale: *scale, Threads: *threads, Workers: *workers, Analyses: names}
	w := os.Stdout

	// -json replaces the text experiments with the Figure 5 report.
	if *jsonOut != "" {
		rep, err := experiments.BenchJSON(o)
		out := os.Stdout
		if err == nil && *jsonOut != "-" {
			out, err = os.Create(*jsonOut)
		}
		if err == nil {
			err = experiments.WriteBenchJSON(out, rep)
		}
		if err == nil && out != os.Stdout {
			err = out.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}

	run("fig5", func() error {
		rows, err := experiments.Figure5(o)
		if err != nil {
			return err
		}
		experiments.WriteFigure5(w, rows)
		return nil
	})
	run("fig6", func() error {
		rows, err := experiments.Figure6(o)
		if err != nil {
			return err
		}
		experiments.WriteFigure6(w, rows)
		return nil
	})
	run("table1", func() error {
		cells, err := experiments.Table1(o)
		if err != nil {
			return err
		}
		experiments.WriteTable1(w, cells)
		return nil
	})
	run("table2", func() error {
		rows, red, err := experiments.Table2(o)
		if err != nil {
			return err
		}
		experiments.WriteTable2(w, rows, red)
		return nil
	})
	run("detectors", func() error {
		rows, err := experiments.ExtensionDetectors(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionDetectors(w, rows)
		return nil
	})
	run("muxbench", func() error {
		rows, err := experiments.MuxAmortization(o)
		if err != nil {
			return err
		}
		experiments.WriteMuxAmortization(w, rows)
		return nil
	})
	run("epochs", func() error {
		rows, err := experiments.Epochs(o)
		if err != nil {
			return err
		}
		experiments.WriteEpochs(w, rows)
		return nil
	})
	run("scaling", func() error {
		pts, err := experiments.ExtensionScaling(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionScaling(w, pts)
		return nil
	})
	run("nondet", func() error {
		rows, err := experiments.ExtensionNondeterminator(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionNondeterminator(w, rows)
		return nil
	})
}
