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
// names, multiplexed onto one pass per cell); TestEquivalenceLegs diffs the
// -json records at "-analysis fasttrack" (and the "ft" alias) against the
// default to pin the single-analysis path byte-identical through the
// registry seam. The muxbench experiment measures N sequential
// single-analysis Aikido passes against ONE multiplexed pass hosting the
// same N analyses. The empty value keeps each cell's default; a value that
// names no analysis, only commas and spaces, or that names an unknown
// analysis or one analysis twice, exits 2 before any cell runs.
//
// Each experiment's cells are sharded across -workers concurrent runner
// workers (default: all CPUs); results are identical at any worker count.
//
// With -json, the selected experiments write one JSON line per cell to
// FILE ("-" for stdout) instead of their tables:
// {"experiment":NAME,"label":CELL,"result":core.Result}. The records'
// bytes depend only on the flags, never on -workers; TestEquivalenceLegs
// diffs -workers 1 against -workers 8. aikido-bench reports simulated
// results only; wall-clock time is measured by bench/aikido-measure (see
// docs/benchmarking.md).
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the selected experiments' tables, or
// their -json records, to stdout and errors to stderr. It returns 2 on
// unusable flags, before any cell runs; 1 when a cell fails or the
// records cannot be written; and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	// names are the valid -experiment values: "all" runs every
	// experiment, in experiments.All's order.
	names := []string{"all"}
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("aikido-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "which experiment: "+strings.Join(names, ", "))
	scale := fs.Float64("scale", 1.0, "workload size multiplier (1.0 = simsmall-scaled default)")
	threads := fs.Int("threads", 0, "override worker threads (0 = benchmark default, 8)")
	workers := fs.Int("workers", runtime.NumCPU(), "runner pool size for the experiment sweep (results are identical at any value)")
	jsonOut := fs.String("json", "", "write one JSON record per cell to this file (\"-\" = stdout) instead of the tables")
	analyses := fs.String("analysis", "", "comma-separated analyses for every analysis-bearing cell (registry names; empty = default FastTrack)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "aikido-bench: "+format+"\n", a...)
		return 2
	}

	// An unknown -experiment would otherwise run nothing and exit 0.
	if !slices.Contains(names, *exp) {
		return usage("unknown experiment %q (want %s)", *exp, strings.Join(names, ", "))
	}
	// NaN and ±Inf turn into meaningless iteration counts, and a value
	// <= 0 would silently run at scale 1.
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		return usage("invalid -scale %v (want a finite number > 0)", *scale)
	}
	if *threads < 0 {
		return usage("invalid -threads %d (want 0 for the benchmark default, or a positive count)", *threads)
	}
	// The empty -analysis keeps each cell's default selection; a
	// non-empty value that names no analysis (only commas and spaces) is
	// rejected rather than silently running that default, and so is one
	// that the analysis registry would reject.
	sel := analysis.ParseList(*analyses)
	if sel == nil && *analyses != "" {
		return usage("-analysis %q names no analysis (omit -analysis, or pass \"\", for the default FastTrack)", *analyses)
	}
	if err := analysis.Check(sel); err != nil {
		return usage("-analysis %q: %v", *analyses, err)
	}
	o := experiments.Options{Scale: *scale, Threads: *threads, Workers: *workers, Analyses: sel}

	var err error
	if *jsonOut == "" || *jsonOut == "-" {
		err = write(stdout, *exp, o, *jsonOut != "")
	} else {
		var f *os.File
		if f, err = os.Create(*jsonOut); err == nil {
			err = write(f, *exp, o, true)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "aikido-bench: %v\n", err)
		return 1
	}
	return 0
}

// write runs the experiments that exp selects and writes their tables to
// w or, asJSON, their records.
func write(w io.Writer, exp string, o experiments.Options, asJSON bool) error {
	for _, e := range experiments.All {
		if exp != "all" && exp != e.Name {
			continue
		}
		res, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if !asJSON {
			e.WriteText(w, o, res)
			fmt.Fprintln(w)
		} else if err := e.WriteJSON(w, o, res); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}
