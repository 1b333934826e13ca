// Command aikido-run executes one PARSEC benchmark model — or, with
// -bench all, every model concurrently — under a chosen detector
// configuration and prints the run's statistics and findings.
//
// Usage:
//
//	aikido-run [-bench NAME|all] [-mode native|dbi|fasttrack|aikido|profile]
//	           [-analysis NAME[,NAME...]] [-max-findings N] [-epoch]
//	           [-provider aikidovm|dos|dthreads] [-paging shadow|nested]
//	           [-switch hypercall|segtrap|probe]
//	           [-threads N] [-scale F] [-workers N] [-findings] [-list]
//	           [-list-analyses]
//	           [-chaos PLAN] [-max-cycles N] [-cell-deadline D] [-keep-going]
//
// -analysis takes any comma-separated selection from the analysis
// registry ("fasttrack", "lockset", "atomicity", "commgraph", "taint",
// "memcheck", "spbags", "sampled[:NAME]", aliases like "ft"); multiple
// names multiplex onto ONE instrumented execution — a single DBI+sharing
// pass hosts every selected analysis, the paper's §7 framework claim in
// flag form. The findings table is driven by the registry's uniform
// findings surface: no per-detector switch exists here, and a newly
// registered analysis shows up without touching this command.
//
// -epoch enables epoch-based re-privatization in the Aikido modes
// (sharing.DefaultEpochPolicy): Shared pages that fall back to a single
// owner are demoted to Private(owner)/Unused at epoch boundaries and
// their instructions return to native speed; the epoch statistics lines
// report the demotion traffic.
//
// -list-analyses prints the registry catalog: canonical names, the short
// aliases that resolve to them, and the wrapper combinator in composed
// form ("sampled:<name>").
//
// Fault isolation (see internal/faultinject and ARCHITECTURE.md):
// -chaos injects a deterministic fault plan ("seed=N;KIND:SEAM[@COUNT];…"
// with kinds panic|error|stall and seams provider|guest|analysis) into
// every cell;
// -max-cycles and -cell-deadline bound each cell's simulated-cycle and
// wall-clock consumption with typed budget errors;
// -keep-going records failing cells in the report and finishes the rest
// of the sweep instead of aborting on the first error.
//
// All execution goes through the concurrent runner (internal/runner):
// -bench all shards the ten models across -workers pool workers, and the
// printed statistics are identical at any worker count. A failing cell —
// injected or genuine — never crashes the process: it surfaces as a
// typed cell error.
//
// Exit codes: 0 clean, 1 findings reported, 2 cell error (a run failed,
// even under -keep-going), 3 flag/usage errors (including a -scale that
// is not a finite positive number and a negative -threads).
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
	"repro/internal/faultinject"
	"repro/internal/hypervisor"
	"repro/internal/parsec"
	"repro/internal/provider"
	"repro/internal/runner"
	"repro/internal/sharing"
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
	mode := fs.String("mode", "aikido", "native, dbi, fasttrack, aikido, profile")
	analyses := fs.String("analysis", "fasttrack", "comma-separated analyses to multiplex onto one pass (see -list-analyses)")
	maxFindings := fs.Int("max-findings", 0, "cap stored findings for the whole run, divided across the selected analyses (0 = each detector's default)")
	epoch := fs.Bool("epoch", false, "enable epoch-based re-privatization of Shared pages (Aikido modes)")
	prov := fs.String("provider", "aikidovm", "per-thread protection provider: aikidovm, dos, dthreads (§7.1)")
	paging := fs.String("paging", "shadow", "AikidoVM paging mode: shadow, nested (§3.2.2)")
	swi := fs.String("switch", "hypercall", "context-switch interception: hypercall, segtrap, probe (§3.2.3)")
	threads := fs.Int("threads", 0, "worker threads (0 = benchmark default)")
	scale := fs.Float64("scale", 1.0, "workload size multiplier")
	workers := fs.Int("workers", runtime.NumCPU(), "runner pool size for -bench all (results are identical at any value)")
	findings := fs.Bool("findings", false, "print every detected race/warning/violation/flow")
	races := fs.Bool("races", false, "alias for -findings")
	list := fs.Bool("list", false, "list benchmarks and exit")
	listAn := fs.Bool("list-analyses", false, "list registered analyses and exit")
	chaos := fs.String("chaos", "", "fault-injection plan: [seed=N;]KIND:SEAM[@COUNT];... (kinds panic|error|stall, seams provider|guest|analysis)")
	maxCycles := fs.Uint64("max-cycles", 0, "per-cell simulated-cycle budget (0 = unlimited); overrun is a typed cell error")
	cellDeadline := fs.Duration("cell-deadline", 0, "per-cell wall-clock budget (0 = unlimited); overrun is a typed cell error")
	keepGoing := fs.Bool("keep-going", false, "record failing cells and finish the sweep instead of aborting on the first error")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitClean
		}
		return exitBadFlags
	}
	printFindings := *findings || *races

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
		"profile":   core.ModeAikidoProfile,
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "aikido-run: unknown mode %q\n", *mode)
		return exitBadFlags
	}
	pk, ok := map[string]provider.Kind{
		"aikidovm": provider.AikidoVM,
		"dos":      provider.DOS,
		"dthreads": provider.Dthreads,
	}[*prov]
	if !ok {
		fmt.Fprintf(os.Stderr, "aikido-run: unknown provider %q\n", *prov)
		return exitBadFlags
	}
	pg, ok := map[string]hypervisor.PagingMode{
		"shadow": hypervisor.ShadowPaging,
		"nested": hypervisor.NestedPaging,
	}[*paging]
	if !ok {
		fmt.Fprintf(os.Stderr, "aikido-run: unknown paging mode %q\n", *paging)
		return exitBadFlags
	}
	sw, ok := map[string]hypervisor.SwitchInterception{
		"hypercall": hypervisor.SwitchHypercall,
		"segtrap":   hypervisor.SwitchSegTrap,
		"probe":     hypervisor.SwitchProbe,
	}[*swi]
	if !ok {
		fmt.Fprintf(os.Stderr, "aikido-run: unknown switch mechanism %q\n", *swi)
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
	plan, err := faultinject.ParsePlan(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aikido-run: %v\n", err)
		return exitBadFlags
	}

	cfg := core.DefaultConfig(m)
	cfg.Analyses = analysis.ParseList(*analyses)
	cfg.MaxFindings = *maxFindings
	cfg.Provider = pk
	cfg.Paging = pg
	cfg.Switch = sw
	cfg.Chaos = plan
	cfg.MaxCycles = *maxCycles
	if *epoch {
		cfg.Epoch = sharing.DefaultEpochPolicy()
	}

	size := func(b parsec.Benchmark) parsec.Benchmark {
		b = b.WithScale(*scale)
		if *threads > 0 {
			b = b.WithThreads(*threads)
		}
		return b
	}
	ropt := runner.Options{KeepGoing: *keepGoing, CellDeadline: *cellDeadline}

	if *bench == "all" {
		var specs []runner.Spec
		for _, b := range parsec.All() {
			b = size(b)
			specs = append(specs, runner.Spec{Label: b.Name, Workload: b.Spec, Config: cfg})
		}
		ropt.Workers = *workers
		rep, err := runner.Sweep(specs, ropt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-run: %v\n", err)
			return exitCellError
		}
		fmt.Printf("mode %s, analyses %v, scale %.2f, %d runner workers\n",
			m, cfg.Analyses, *scale, rep.Workers)
		fmt.Printf("%-15s %14s %14s %14s %14s %9s %9s\n",
			"benchmark", "cycles", "instructions", "mem refs", "instrumented", "shared%", "findings")
		total := 0
		for _, c := range rep.Cells {
			res := c.Res
			if res == nil {
				// Failed under -keep-going: its slot is empty; the
				// failure itself is listed below.
				continue
			}
			fmt.Printf("%-15s %14d %14d %14d %14d %8.2f%% %9d\n",
				c.Spec.Label, res.Cycles, res.Engine.Instructions, res.Engine.MemRefs,
				res.Engine.InstrumentedExecs, 100*res.SharedAccessFraction(), res.TotalFindings())
			total += res.TotalFindings()
		}
		t := rep.Totals
		fmt.Printf("%-15s %14d %14d %14d %14d %9s %9d\n",
			"total", t.Cycles, t.Instructions, t.MemRefs, t.InstrumentedExecs, "", total)
		if printFindings {
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
	ropt.Workers = 1
	rep, err := runner.Sweep([]runner.Spec{{Label: b.Name, Workload: b.Spec, Config: cfg}}, ropt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aikido-run: %v\n", err)
		return exitCellError
	}
	res := rep.Cells[0].Res
	if res == nil {
		// The only cell failed under -keep-going.
		return verdict(rep, 0)
	}

	fmt.Printf("benchmark        %s (%d worker threads, scale %.2f)\n", b.Name, b.Spec.Threads, *scale)
	fmt.Printf("mode             %s\n", res.Mode)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("instructions     %d\n", res.Engine.Instructions)
	fmt.Printf("memory refs      %d\n", res.Engine.MemRefs)
	fmt.Printf("instrumented     %d\n", res.Engine.InstrumentedExecs)
	fmt.Printf("context switches %d\n", res.GuestContextSwitches)
	if m == core.ModeAikidoFastTrack || m == core.ModeAikidoProfile {
		fmt.Printf("provider         %s (paging %s, switch %s)\n", pk, pg, sw)
		fmt.Printf("shared accesses  %d (%.2f%% of memory refs)\n",
			res.SD.SharedPageAccesses, 100*res.SharedAccessFraction())
		fmt.Printf("pages private    %d\n", res.SD.PagesPrivate)
		fmt.Printf("pages shared     %d\n", res.SD.PagesShared)
		fmt.Printf("prot ops         %d (+%d ranged)\n", res.Prov.ProtOps, res.Prov.RangeOps)
		fmt.Printf("provider faults  %d\n", res.Prov.Faults)
		if pk == provider.AikidoVM {
			fmt.Printf("aikido faults    %d\n", res.HV.AikidoFaults)
			fmt.Printf("hypercalls       %d\n", res.HV.Hypercalls)
		}
		fmt.Printf("instrumented PCs %d\n", res.SD.InstrumentedPCs)
		if res.SD.RearmFailures > 0 {
			fmt.Printf("rearm failures   %d (affected pages stay instrumented)\n", res.SD.RearmFailures)
		}
		if *epoch {
			fmt.Printf("epoch sweeps     %d (%d ticks)\n", res.SD.EpochSweeps, res.EpochTicks)
			fmt.Printf("pages demoted    %d private, %d unused\n",
				res.SD.PagesDemotedPrivate, res.SD.PagesDemotedUnused)
			fmt.Printf("pages reshared   %d\n", res.SD.PagesReshared)
			fmt.Printf("PCs uninstr'd    %d\n", res.SD.PCsUninstrumented)
		}
	}
	// The findings table is registry-driven: one block per selected
	// analysis, rendered through the uniform findings surface.
	total := 0
	for _, name := range res.AnalysisNames() {
		f := res.Findings[name]
		fmt.Printf("analysis         %s: %s\n", name, f.Summary())
		fmt.Printf("findings         %d\n", f.Len())
		total += f.Len()
		if printFindings {
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
