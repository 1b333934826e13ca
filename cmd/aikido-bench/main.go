// Command aikido-bench regenerates the paper's evaluation — Figure 5,
// Figure 6, Table 1, Table 2 — plus the ablation studies (mirror pages,
// paging modes, context-switch interception, protection providers) and the
// extension experiments (detector comparison, thread scaling,
// Nondeterminator vs FastTrack, STM strong atomicity, CREW record/replay).
//
// Usage:
//
//	aikido-bench [-experiment all|fig5|fig6|table1|table2|ablation|paging|
//	              switch|providers|detectors|muxbench|epochs|scaling|
//	              nondet|stm|crew]
//	             [-scale F] [-threads N] [-workers N] [-json FILE]
//	             [-muxjson FILE] [-epochjson FILE] [-epoch]
//	             [-analysis NAME[,NAME...]] [-deterministic]
//	aikido-bench -experiment chaos [-chaos PLAN] [-scale F] [-workers N]
//	aikido-bench -compare OLD.json,NEW.json [-max-regress-pct P]
//
// -analysis selects the analyses every analysis-bearing cell runs (registry
// names, multiplexed onto one pass per cell); CI diffs the -json report at
// "-analysis fasttrack" (and the "ft" alias) against the default to pin the
// single-analysis path byte-identical through the registry seam. The
// muxbench experiment (and -muxjson, the BENCH_<n>.json source) measures N
// sequential single-analysis Aikido passes against ONE multiplexed pass
// hosting the same N analyses.
//
// Every model×mode experiment matrix is sharded across -workers concurrent
// runner workers (default: all CPUs); results are identical at any worker
// count. The nondet, stm and crew extensions run their own engines
// (SP-bags, the STM, CREW record/replay) sequentially and ignore -workers.
//
// With -json, the Figure 5 workload matrix runs once per (model, mode) with
// wall-clock timing and a machine-readable report is written to FILE ("-"
// for stdout). Checked-in snapshots follow the BENCH_<n>.json convention —
// one per PR that claims a performance change — so the repository carries
// its own perf trajectory; take snapshots with -workers 1, since per-cell
// wall_ns is inflated by contention when cells run concurrently (see
// docs/benchmarking.md). -deterministic zeroes the report's wall_ns fields
// so the bytes depend only on simulated metrics; CI uses it to diff
// -workers 1 against -workers 8.
//
// -epoch enables epoch-based re-privatization (sharing.DefaultEpochPolicy)
// in every Aikido cell: CI's 3-way equivalence leg diffs an -epoch report
// against the baseline to pin that demotion never perturbs the PARSEC
// models. The epochs experiment (and -epochjson, the BENCH_4.json source)
// measures the demotion win on the phased/migratory workload suite, where
// it does fire.
//
// -experiment chaos is the fault-isolation acceptance harness and is NOT
// part of "all": it runs the chaos matrix (every Figure-5 model×mode cell
// plus the epoch suite's demoting workloads) under the deterministic
// fault-injection plan given with -chaos ("[seed=N;]KIND:SEAM[@COUNT];…",
// see internal/faultinject), and exits nonzero if any containment
// contract breaks — an injected fault escaping as a process crash, a
// failure that is not a typed error, a report that differs between
// -workers N and -workers 1, or (with an empty plan) any byte of
// divergence from the chaos-free matrix. CI runs five seeded plans plus
// the empty plan and asserts exit 0.
//
// An -experiment value that names no experiment exits 2 and lists the
// valid names, and so does a -scale that is not a finite positive number
// or a negative -threads.
//
// -compare OLD,NEW is the CI bench-regression gate: both files must be
// BENCH-style snapshots of the same schema and scale, and the command
// exits nonzero when NEW's geomean cycle speedup is more than
// -max-regress-pct percent below OLD's.
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

// experimentNames are the valid -experiment values: "all" runs every text
// experiment after it in this order, and "chaos" (last) runs only when
// named.
var experimentNames = []string{"all", "fig5", "fig6", "table1", "table2",
	"ablation", "paging", "switch", "providers", "detectors", "muxbench",
	"epochs", "scaling", "nondet", "stm", "crew", "chaos"}

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

func main() {
	exp := flag.String("experiment", "all", "which experiment: "+strings.Join(experimentNames, ", "))
	scale := flag.Float64("scale", 1.0, "workload size multiplier (1.0 = simsmall-scaled default)")
	threads := flag.Int("threads", 0, "override worker threads (0 = benchmark default, 8)")
	workers := flag.Int("workers", runtime.NumCPU(), "runner pool size for the experiment sweep (results are identical at any value)")
	jsonOut := flag.String("json", "", "write a machine-readable bench report to this file (\"-\" = stdout) instead of running text experiments")
	muxOut := flag.String("muxjson", "", "write the mux-amortization report (BENCH_3.json snapshots) to this file (\"-\" = stdout)")
	epochOut := flag.String("epochjson", "", "write the epoch re-privatization report (BENCH_4.json snapshots) to this file (\"-\" = stdout)")
	epoch := flag.Bool("epoch", false, "enable epoch-based re-privatization in every Aikido cell (CI diffs this against the baseline)")
	det := flag.Bool("deterministic", false, "zero wall_ns in machine-readable reports so output bytes depend only on simulated metrics")
	analyses := flag.String("analysis", "", "comma-separated analyses for every analysis-bearing cell (registry names; empty = default FastTrack)")
	chaosPlan := flag.String("chaos", "", "with -experiment chaos: the fault-injection plan [seed=N;]KIND:SEAM[@COUNT];... (empty = idle-overhead identity check)")
	compare := flag.String("compare", "", "OLD.json,NEW.json: compare two BENCH snapshots of one schema and fail on regression (CI gate)")
	maxRegress := flag.Float64("max-regress-pct", 5, "with -compare, the allowed geomean-cycle-speedup regression in percent")
	flag.Parse()

	if *compare != "" {
		oldPath, newPath, err := experiments.ParseComparePair(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(2)
		}
		summary, err := experiments.CompareSnapshots(oldPath, newPath, *maxRegress)
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

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
	o := experiments.Options{Scale: *scale, Threads: *threads, Workers: *workers,
		Deterministic: *det, Analyses: analysis.ParseList(*analyses), Epoch: *epoch}
	w := os.Stdout

	// The chaos harness replaces the text experiments entirely (and is
	// excluded from -experiment all): it sweeps its own matrix twice for
	// the determinism check and asserts its containment contracts,
	// exiting nonzero — after rendering the report — when any fails.
	if *exp == "chaos" {
		rep, err := experiments.ChaosSweep(o, *chaosPlan)
		if rep != nil {
			experiments.WriteChaos(w, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	openOut := func(path string) *os.File {
		if path == "-" {
			return os.Stdout
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(1)
		}
		return f
	}

	// -json, -muxjson and -epochjson each replace the text experiments;
	// given together, every requested report is produced.
	if *jsonOut != "" || *muxOut != "" || *epochOut != "" {
		if *jsonOut != "" {
			rep, err := experiments.BenchJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: json: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*jsonOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteBenchJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *muxOut != "" {
			rep, err := experiments.MuxJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: muxjson: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*muxOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteMuxJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *epochOut != "" {
			rep, err := experiments.EpochJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: epochjson: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*epochOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteEpochJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
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
	run("ablation", func() error {
		rows, err := experiments.Ablations(o)
		if err != nil {
			return err
		}
		experiments.WriteAblations(w, rows)
		return nil
	})
	run("paging", func() error {
		rows, err := experiments.AblationPaging(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationPaging(w, rows)
		return nil
	})
	run("switch", func() error {
		rows, err := experiments.AblationSwitch(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationSwitch(w, rows)
		return nil
	})
	run("providers", func() error {
		rows, err := experiments.AblationProviders(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationProviders(w, rows)
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
	run("stm", func() error {
		rows, err := experiments.ExtensionSTM(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionSTM(w, rows)
		return nil
	})
	run("crew", func() error {
		rows, err := experiments.ExtensionCREW(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionCREW(w, rows)
		return nil
	})
}
