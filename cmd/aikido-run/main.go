// Command aikido-run executes one PARSEC benchmark model — or, with
// -bench all, every model concurrently — under a chosen detector
// configuration and prints the run's statistics and findings.
//
// Usage:
//
//	aikido-run [-bench NAME|all] [-mode native|dbi|fasttrack|aikido]
//	           [-analysis none|NAME[,NAME...]]
//	           [-threads N] [-scale F] [-workers N] [-findings] [-list]
//	           [-list-analyses] [-max-cycles N]
//
// -analysis takes any comma-separated selection from the analysis
// registry ("fasttrack", "lockset", "atomicity", "commgraph", "taint",
// "memcheck", "spbags", aliases like "ft"); multiple names multiplex onto
// ONE instrumented execution — a single DBI+sharing pass hosts every
// selected analysis, the paper's §7 framework claim in flag form. The findings table is driven by the registry's uniform
// findings surface: no per-detector switch exists here, and a newly
// registered analysis shows up without touching this command. The
// default is the mode's core.DefaultConfig selection (FastTrack under
// fasttrack and aikido); "-analysis none" selects none, which under
// -mode aikido runs AikidoSD alone as a sharing profiler. A value that
// names no analysis, only commas and spaces, is a usage error.
//
// A flag the selected stack would ignore (core.Config.Check) is a usage
// error: -analysis under native or dbi. So is an -analysis value that
// names an unknown analysis, or one analysis twice ("ft,fasttrack").
//
// The Aikido modes run with epoch demotion, core.DefaultConfig's default:
// Shared pages that fall back to a single owner are demoted to
// Private(owner)/Unused at epoch boundaries and their instructions return
// to native speed; the epoch statistics lines report the demotion
// traffic.
//
// -list-analyses prints the registry catalog: canonical names and the
// short aliases that resolve to them.
//
// Budgets and failures (see ARCHITECTURE.md): -max-cycles sets each
// cell's core.Config.MaxCycles, which bounds its simulated cycles with a
// typed budget error.
//
// All execution goes through the concurrent runner (internal/runner):
// -bench all shards the ten models across -workers pool workers, and the
// printed statistics are identical at any worker count. A failing cell
// never crashes the process or stops the sweep: every other cell still
// runs and prints, and each failed cell is named on stderr as a typed
// cell error.
//
// Exit codes: 0 clean, 1 findings reported, 2 cell error (a run failed),
// 3 flag/usage errors (including a -scale that is not a finite positive
// number, a negative -threads, and a flag the selected stack would
// ignore).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/runner"
)

// Exit codes, distinct so scripts can tell outcome classes apart.
const (
	exitClean     = 0 // ran, no findings
	exitFindings  = 1 // ran, at least one race/warning/violation reported
	exitCellError = 2 // at least one cell failed (panic, budget, run error)
	exitBadFlags  = 3 // unusable flags or values; nothing ran
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("aikido-run", flag.ContinueOnError)
	bench := fs.String("bench", "fluidanimate", "benchmark name (see -list), or \"all\" to sweep every model")
	mode := fs.String("mode", "aikido", "native, dbi, fasttrack, aikido")
	analyses := fs.String("analysis", "", "comma-separated analyses to multiplex onto one pass (see -list-analyses), or none (default: the mode's, fasttrack for fasttrack and aikido)")
	threads := fs.Int("threads", 0, "worker threads (0 = benchmark default)")
	scale := fs.Float64("scale", 1.0, "workload size multiplier")
	workers := fs.Int("workers", runtime.NumCPU(), "runner pool size for -bench all (results are identical at any value)")
	findings := fs.Bool("findings", false, "print every detected race/warning/violation/flow")
	list := fs.Bool("list", false, "list benchmarks and exit")
	listAn := fs.Bool("list-analyses", false, "list registered analyses and exit")
	maxCycles := fs.Uint64("max-cycles", 0, "per-cell simulated-cycle budget (0 = unlimited); overrun is a typed cell error")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitClean
		}
		return exitBadFlags
	}
	if *list {
		for _, n := range parsec.Names() {
			fmt.Println(n)
		}
		return exitClean
	}
	if *listAn {
		for _, line := range analysis.Catalog() {
			fmt.Println(line)
		}
		return exitClean
	}

	m, ok := map[string]core.Mode{
		"native":    core.ModeNative,
		"dbi":       core.ModeDBI,
		"fasttrack": core.ModeFastTrackFull,
		"aikido":    core.ModeAikidoFastTrack,
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "aikido-run: unknown mode %q\n", *mode)
		return exitBadFlags
	}
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		fmt.Fprintf(os.Stderr, "aikido-run: invalid -scale %v (want a finite number > 0)\n", *scale)
		return exitBadFlags
	}
	if *threads < 0 {
		fmt.Fprintf(os.Stderr, "aikido-run: invalid -threads %d (want 0 for the benchmark default, or a positive count)\n", *threads)
		return exitBadFlags
	}
	cfg := core.DefaultConfig(m)
	if *analyses == "none" {
		cfg.Analyses = nil
	} else if *analyses != "" {
		if cfg.Analyses = analysis.ParseList(*analyses); cfg.Analyses == nil {
			fmt.Fprintf(os.Stderr, "aikido-run: -analysis %q names no analysis (use -analysis none to run none, or omit it for the mode's default)\n", *analyses)
			return exitBadFlags
		}
	}
	cfg.MaxCycles = *maxCycles
	if err := cfg.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "aikido-run: %v\n", err)
		return exitBadFlags
	}

	size := func(b parsec.Benchmark) parsec.Benchmark {
		b = b.WithScale(*scale)
		if *threads > 0 {
			b = b.WithThreads(*threads)
		}
		return b
	}

	if *bench == "all" {
		var specs []runner.Spec
		for _, b := range parsec.All() {
			b = size(b)
			specs = append(specs, runner.Spec{Label: b.Name, Source: b.Spec, Config: cfg})
		}
		rep := runner.Sweep(specs, *workers)
		fmt.Printf("mode %s, analyses %v, scale %.2f, %d runner workers\n",
			m, cfg.Analyses, *scale, rep.Workers)
		fmt.Printf("%-15s %14s %14s %14s %14s %9s %9s\n",
			"benchmark", "cycles", "instructions", "mem refs", "instrumented", "shared%", "findings")
		var cycles, instrs, memRefs, instrumented uint64
		total := 0
		for _, c := range rep.Cells {
			res := c.Res
			if res == nil {
				// Failed: its slot is empty; verdict names the failure.
				continue
			}
			fmt.Printf("%-15s %14d %14d %14d %14d %8.2f%% %9d\n",
				c.Spec.Label, res.Cycles, res.Engine.Instructions, res.Engine.MemRefs,
				res.Engine.InstrumentedExecs, 100*res.SharedAccessFraction(), res.TotalFindings())
			cycles += res.Cycles
			instrs += res.Engine.Instructions
			memRefs += res.Engine.MemRefs
			instrumented += res.Engine.InstrumentedExecs
			total += res.TotalFindings()
		}
		fmt.Printf("%-15s %14d %14d %14d %14d %9s %9d\n",
			"total", cycles, instrs, memRefs, instrumented, "", total)
		if *findings {
			for _, c := range rep.Cells {
				if c.Res == nil {
					continue
				}
				for _, name := range c.Res.AnalysisNames() {
					for _, line := range c.Res.Findings[name].Strings() {
						fmt.Printf("%s: %s: %s\n", c.Spec.Label, name, line)
					}
				}
			}
		}
		return verdict(rep, total)
	}

	b, err := parsec.ByName(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aikido-run: %v\n", err)
		return exitBadFlags
	}
	b = size(b)
	rep := runner.Sweep([]runner.Spec{{Label: b.Name, Source: b.Spec, Config: cfg}}, 1)
	res := rep.Cells[0].Res
	if res == nil {
		// The only cell failed.
		return verdict(rep, 0)
	}

	fmt.Printf("benchmark        %s (%d worker threads, scale %.2f)\n", b.Name, b.Spec.Threads, *scale)
	fmt.Printf("mode             %s\n", res.Mode)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("instructions     %d\n", res.Engine.Instructions)
	fmt.Printf("memory refs      %d\n", res.Engine.MemRefs)
	fmt.Printf("instrumented     %d\n", res.Engine.InstrumentedExecs)
	fmt.Printf("context switches %d\n", res.GuestContextSwitches)
	if m == core.ModeAikidoFastTrack {
		fmt.Printf("shared accesses  %d (%.2f%% of memory refs)\n",
			res.SD.SharedPageAccesses, 100*res.SharedAccessFraction())
		fmt.Printf("pages private    %d\n", res.SD.PagesPrivate)
		fmt.Printf("pages shared     %d\n", res.SD.PagesShared)
		fmt.Printf("aikido faults    %d\n", res.HV.AikidoFaults)
		fmt.Printf("hypercalls       %d\n", res.HV.Hypercalls)
		fmt.Printf("instrumented PCs %d\n", res.SD.InstrumentedPCs)
		fmt.Printf("epoch sweeps     %d\n", res.SD.EpochSweeps)
		fmt.Printf("pages demoted    %d private, %d unused\n",
			res.SD.PagesDemotedPrivate, res.SD.PagesDemotedUnused)
		fmt.Printf("pages reshared   %d\n", res.SD.PagesReshared)
		fmt.Printf("PCs uninstr'd    %d\n", res.SD.PCsUninstrumented)
	}
	// The findings table is registry-driven: one block per selected
	// analysis, rendered through the uniform findings surface.
	total := 0
	for _, name := range res.AnalysisNames() {
		f := res.Findings[name]
		fmt.Printf("analysis         %s: %s\n", name, f.Summary())
		fmt.Printf("findings         %d\n", f.Len())
		total += f.Len()
		if *findings {
			for _, line := range f.Strings() {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	return verdict(rep, total)
}

// verdict prints any recorded cell failures and maps the sweep outcome
// to the documented exit code: cell errors dominate findings dominate
// clean.
func verdict(rep *runner.Report, totalFindings int) int {
	for _, ce := range rep.Failed {
		fmt.Fprintf(os.Stderr, "aikido-run: failed cell %d (%s): %s: %v\n",
			ce.Index, ce.Label, ce.Kind, ce.Err)
	}
	switch {
	case len(rep.Failed) > 0:
		return exitCellError
	case totalFindings > 0:
		return exitFindings
	}
	return exitClean
}
