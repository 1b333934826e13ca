package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/workload"
)

// options configure one workload's measurement.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	chrome   string // traced runs: Chrome trace-event output file ("" = none)

	// scale multiplies every spec's committed size and minPasses, when
	// non-zero, replaces the pass floor. The benchmark uses 1 and 0; the
	// smoke test shrinks both.
	scale     float64
	minPasses int
}

// metric is one reported value with its unit and the number of samples
// behind it (0 for a value computed exactly).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	of    string  // what a sample is
	raw   float64 // a host-normalized value's measured value (0 otherwise)
}

// report is one workload's measurement.
type report struct {
	opts              options
	host              hostStamp
	calibNs, calibMin float64
	calibN            int
	cells             int
	passes, traced    int
	attempted, failed int
	failures          []string
	spans, dropped    int
	metrics           map[string]metric
}

// reference is a cell's untimed reference run, which doubles as warm-up.
type reference struct {
	key      string // cycles, counters and findings of the run
	findings string
	native   uint64 // ModeNative cycles of the same program
	res      *core.Result
	// problem, when set, is why every run of the cell fails the findings
	// check.
	problem string
}

// cellRun is one timed execution of a cell.
type cellRun struct {
	compileNs, newNs, runNs int64
	allocs                  uint64
	res                     *core.Result
}

// passTotals sums one pass over its cells.
type passTotals struct {
	compileNs, newNs, all int64
}

// measure runs one workload: untimed reference runs, then timed passes in
// pass-major order until both the time budget and the pass floor are met.
// With opts.trace every second pass is traced. A traced run whose Result
// differs from the untraced reference is an error.
func measure(o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	cells := w.cells(o.seed, o.scale)
	rep := &report{opts: o, host: stampHost(), cells: len(cells), metrics: map[string]metric{}}

	refs := make([]reference, len(cells))
	for i, c := range cells {
		refs[i] = referenceRun(c)
	}

	minPasses := o.minPasses
	if minPasses == 0 {
		minPasses = 10 // enough for a best-of-N per cell
		if o.trace {
			minPasses = 2
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var (
		untraced, traced []passTotals
		calib, rss       []float64
		lastSample       int64
		allocs, allRefs  uint64
		// best is each cell's fastest untraced Run, in host ns.
		best = make([]int64, len(cells))
	)
	gc0, pause0 := gcStats()
	start := now()
	for pass := 0; ; pass++ {
		done := pass >= minPasses && float64(now()-start) >= o.seconds*1e9
		if done && (!o.trace || pass%2 == 0) {
			break
		}
		if t := now(); pass == 0 || t-lastSample >= 50e6 {
			// Every 50 ms at most: spawn-startup's passes take ~3 ms.
			lastSample = t
			calib = append(calib, float64(calibrate()))
			rss = append(rss, rssMB())
		}
		ptr := (*tracer)(nil)
		if o.trace && pass%2 == 1 {
			ptr = tr
		}
		var pt passTotals
		p0 := now()
		for i, c := range cells {
			c0 := now()
			run, err := runCell(c, ptr)
			if ptr != nil {
				ptr.span("cell", c0, now(), map[string]string{"cell": c.name, "pass": fmt.Sprint(pass)})
			}
			rep.attempted++
			if ptr != nil && err == nil && refs[i].problem == "" && resultKey(run.res) != refs[i].key {
				return nil, fmt.Errorf("traced run of %s differs from the untraced reference in cycles, counters or findings", c.name)
			}
			if why := check(run, err, refs[i]); why != "" {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("cell %s pass %d: %s", c.name, pass, why))
				continue
			}
			pt.compileNs += run.compileNs
			pt.newNs += run.newNs
			if ptr == nil {
				if best[i] == 0 || run.runNs < best[i] {
					best[i] = run.runNs
				}
				allocs += run.allocs
				allRefs += run.res.Engine.MemRefs
			}
		}
		pt.all = now() - p0
		if ptr != nil {
			ptr.span("pass", p0, p0+pt.all, map[string]string{"pass": fmt.Sprint(pass)})
			traced = append(traced, pt)
		} else {
			untraced = append(untraced, pt)
		}
	}
	gc1, pause1 := gcStats()
	rep.passes, rep.traced = len(untraced), len(traced)
	rep.calibNs, rep.calibMin, rep.calibN = median(calib), percentile(calib, 0), len(calib)

	if !o.trace {
		rep.endToEndMetrics(refs, best, untraced, allocs, allRefs, rss)
		return rep, nil
	}

	rep.layerMetrics(tr, refs, untraced, traced, float64(gc1-gc0), float64(pause1-pause0))
	rep.spans, rep.dropped = len(tr.spans), tr.dropped
	if o.chrome != "" {
		meta := map[string]string{"workload": o.workload, "seed": fmt.Sprint(o.seed),
			"cpu": rep.host.CPU, "go": rep.host.Go}
		if err := tr.writeChrome(o.chrome, meta); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// endToEndMetrics fills the end-to-end metrics of an untraced run from
// each cell's best Run time and the passes' set-up times.
func (rep *report) endToEndMetrics(refs []reference, best []int64, untraced []passTotals, allocs, allRefs uint64, rss []float64) {
	// Host interference on a shared machine comes in bursts that can
	// halve the simulator's speed for seconds, so each cell's time is
	// its best of N runs, not a sample of the bursts. The host's own
	// speed also drifts by ±10% over minutes; the best calibration
	// time tracks it, so wall times are normalized to calibRefNs.
	host := calibRefNs / rep.calibMin
	norm := func(name string, raw float64, unit string, n int, of string, isRate bool) {
		v := raw * host
		if isRate {
			v = raw / host
		}
		rep.metrics[name] = metric{Value: v, Unit: unit, n: n, of: of, raw: raw}
	}
	var refsSum, bestSum float64
	var nsPerRef []float64
	for i, r := range refs {
		if r.res == nil || best[i] == 0 || r.res.Engine.MemRefs == 0 {
			continue
		}
		n := float64(r.res.Engine.MemRefs)
		refsSum += n
		bestSum += float64(best[i])
		nsPerRef = append(nsPerRef, float64(best[i])/n)
	}
	var setup []float64
	for _, p := range untraced {
		setup = append(setup, float64(p.compileNs+p.newNs)/1e9)
	}
	runs := len(nsPerRef) * len(untraced)
	norm("refs_per_s", ratio(refsSum, bestSum/1e9), "1/s", runs, "cell-runs, best per cell", true)
	norm("ns_per_ref_p50", median(nsPerRef), "ns", runs, "cell-runs, best per cell", false)
	norm("ns_per_ref_p90", percentile(nsPerRef, 0.9), "ns", runs, "cell-runs, best per cell", false)
	norm("setup_s", median(setup), "s", len(setup), "passes", false)
	m := rep.metrics
	m["allocs_per_kref"] = metric{Value: ratio(float64(allocs), float64(allRefs)/1000), Unit: "allocs/kref"}
	m["rss_mb"] = metric{Value: median(rss), Unit: "MiB", n: len(rss), of: "samples"}
	m["sim_slowdown_x"] = metric{Value: simSlowdown(refs), Unit: "x"}
}

// referenceRun computes a cell's native cycles, reference Result and
// FastTrack race addresses, and checks them against the other detector
// mode. Whole findings may differ between the modes in the §6
// first-access window (which thread is reported), so only addresses are
// compared.
func referenceRun(c cell) reference {
	var ref reference
	nat, err := runOnce(c.src, core.DefaultConfig(core.ModeNative))
	if err != nil {
		ref.problem = "native reference: " + err.Error()
		return ref
	}
	ref.native = nat.Cycles
	if ref.res, err = runOnce(c.src, c.cfg); err != nil {
		ref.problem = "reference: " + err.Error()
		return ref
	}
	ref.key, ref.findings = resultKey(ref.res), findingsKey(ref.res)
	other, err := runOnce(c.src, core.DefaultConfig(c.cross).WithAnalyses(c.cfg.Analyses...))
	if err != nil {
		ref.problem = c.cross.String() + " reference: " + err.Error()
		return ref
	}
	if a, b := raceAddrs(ref.res), raceAddrs(other); a != b {
		ref.problem = fmt.Sprintf("race addresses [%s] differ from %s's [%s]", a, c.cross, b)
	}
	return ref
}

func runOnce(src workload.Source, cfg core.Config) (*core.Result, error) {
	prog, err := src.Compile()
	if err != nil {
		return nil, err
	}
	return core.Run(prog, cfg)
}

// runCell compiles, assembles and runs one cell, timing each step. A
// non-nil tracer wraps the system's layers first.
func runCell(c cell, tr *tracer) (cellRun, error) {
	var r cellRun
	cfg := c.cfg
	if tr != nil {
		cfg.Analyses = timedNames(cfg.Analyses)
		activeTracer = tr
	}
	a0 := heapAllocs()
	t0 := now()
	prog, err := c.src.Compile()
	if err != nil {
		return r, fmt.Errorf("compile: %w", err)
	}
	t1 := now()
	sys, err := core.NewSystem(prog, cfg)
	if err != nil {
		return r, fmt.Errorf("new system: %w", err)
	}
	t2 := now()
	var t3 int64
	if tr == nil {
		r.res, err = sys.Run()
		t3 = now()
	} else {
		tr.install(sys)
		s, cy := tr.enter()
		r.res, err = sys.Run()
		t3 = tr.exit(tr.layer(layerDBI), s, cy)
		tr.span("compile", t0, t1, nil)
		tr.span("new_system", t1, t2, nil)
		tr.span("run", t2, t3, nil)
	}
	r.allocs = heapAllocs() - a0
	r.compileNs, r.newNs, r.runNs = t1-t0, t2-t1, t3-t2
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	return r, nil
}

// check returns why a cell-run fails, or "" when its findings match the
// cell's reference byte for byte.
func check(run cellRun, err error, ref reference) string {
	switch {
	case err != nil:
		return err.Error()
	case ref.problem != "":
		return ref.problem
	case findingsKey(run.res) != ref.findings:
		return "findings differ from the reference run"
	}
	return ""
}

// findingsKey renders every analysis's findings, in name order.
func findingsKey(r *core.Result) string {
	var b strings.Builder
	for _, name := range r.AnalysisNames() {
		f := r.Findings[name]
		fmt.Fprintf(&b, "%s: %s\n", name, f.Summary())
		for _, s := range f.Strings() {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// resultKey renders a Result's cycles, every counter and its findings.
func resultKey(r *core.Result) string {
	c := *r
	c.Findings = nil
	return fmt.Sprintf("%+v\n%s", c, findingsKey(r))
}

// raceAddrs renders the sorted, distinct FastTrack race addresses.
func raceAddrs(r *core.Result) string {
	seen := map[uint64]bool{}
	var addrs []uint64
	for _, race := range fasttrack.RacesIn(r.Findings) {
		if !seen[race.Addr] {
			seen[race.Addr] = true
			addrs = append(addrs, race.Addr)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	s := make([]string, len(addrs))
	for i, a := range addrs {
		s[i] = fmt.Sprintf("%#x", a)
	}
	return strings.Join(s, " ")
}

// simSlowdown is Figure 5's metric over the cells: the geometric mean of
// simulated cycles over ModeNative cycles of the same program.
func simSlowdown(refs []reference) float64 {
	sum, n := 0.0, 0
	for _, r := range refs {
		if r.res != nil && r.native > 0 {
			sum += math.Log(float64(r.res.Cycles) / float64(r.native))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// layerMetrics fills the per-layer metrics of a traced run. Calls and
// cycles are per traced pass and exact; host times are means per traced
// pass; counter ratios come from the reference Results.
func (rep *report) layerMetrics(tr *tracer, refs []reference, untraced, traced []passTotals, gcs, pauseNs float64) {
	m := rep.metrics
	nt := float64(len(traced))
	perPass := func(v float64) float64 { return v / nt }
	ms := func(ns int64) float64 { return perPass(float64(ns) / 1e6) }
	layer := func(prefix, name string, withCycles bool) {
		st := tr.get(name)
		m[prefix+".calls"] = metric{Value: perPass(float64(st.calls)), Unit: "count"}
		m[prefix+".self_ms"] = metric{Value: ms(st.selfNs), Unit: "ms", n: len(traced), of: "traced passes"}
		if withCycles {
			m[prefix+".sim_cycles"] = metric{Value: perPass(float64(st.cycles)), Unit: "cycles"}
		}
	}
	m["dbi.self_ms"] = metric{Value: ms(tr.get(layerDBI).selfNs), Unit: "ms", n: len(traced), of: "traced passes"}
	layer("dbi.instrument", layerInstrument, false)
	layer("provider.mem", layerMem, false)
	layer("sharing.pre_access", layerSharingPre, true)
	layer("sharing.fault", layerFault, true)
	layer("provider.switch", layerSwitch, true)
	layer("umbra.pre_access", layerUmbraPre, true)
	layer("analysis.sync", layerSync, true)
	for _, a := range mux4 {
		layer("analysis."+a, "analysis."+a, true)
	}

	var built, lookups, tlbHits, fills, sharedAcc, instr, inline, umbraAll, slow, ftAcc float64
	for _, r := range refs {
		if r.res == nil {
			continue
		}
		e := r.res.Engine
		built += float64(e.BlocksBuilt)
		lookups += float64(e.BlockLookups)
		tlbHits += float64(r.res.HV.TLBHits)
		fills += float64(r.res.HV.ShadowFills)
		sharedAcc += float64(r.res.SD.SharedPageAccesses)
		instr += float64(e.InstrumentedExecs)
		u := r.res.Umbra
		inline += float64(u.InlineHits)
		umbraAll += float64(u.InlineHits + u.GlobalLookups + u.Misses)
		ft := fasttrack.CountersIn(r.res.Findings)
		slow += float64(ft.SlowPath)
		ftAcc += float64(ft.Reads + ft.Writes)
	}
	m["dbi.blocks_built"] = metric{Value: built, Unit: "count"}
	m["dbi.block_hit_ratio"] = metric{Value: 1 - ratio(built, lookups), Unit: "ratio"}
	m["hypervisor.tlb_hit_ratio"] = metric{Value: ratio(tlbHits, tlbHits+fills), Unit: "ratio"}
	m["sharing.useful_instr_ratio"] = metric{Value: ratio(sharedAcc, instr), Unit: "ratio"}
	m["umbra.inline_hit_ratio"] = metric{Value: ratio(inline, umbraAll), Unit: "ratio"}
	m["fasttrack.slow_path_ratio"] = metric{Value: ratio(slow, ftAcc), Unit: "ratio"}

	var compile, newSys, tracedAll, plainAll []float64
	for _, p := range untraced {
		compile = append(compile, float64(p.compileNs)/1e6)
		newSys = append(newSys, float64(p.newNs)/1e6)
		plainAll = append(plainAll, float64(p.all))
	}
	for _, p := range traced {
		tracedAll = append(tracedAll, float64(p.all))
	}
	m["workload.compile_ms"] = metric{Value: median(compile), Unit: "ms", n: len(compile), of: "untraced passes"}
	m["core.new_system_ms"] = metric{Value: median(newSys), Unit: "ms", n: len(newSys), of: "untraced passes"}
	passes := float64(len(untraced) + len(traced))
	m["runtime.gc_cycles"] = metric{Value: gcs / passes, Unit: "count"}
	m["runtime.gc_pause_ms"] = metric{Value: pauseNs / 1e6 / passes, Unit: "ms"}
	m["host.calib_ns"] = metric{Value: rep.calibNs, Unit: "ns", n: rep.calibN, of: "samples"}
	m["trace.overhead_x"] = metric{Value: ratio(median(tracedAll), median(plainAll)), Unit: "x"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank q-quantile of v (0 for no samples);
// q = 0 gives the minimum.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
