package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// quick is a small-scale option set for fast tests.
var quick = Options{Scale: 0.2}

// byName returns the experiment named name.
func byName(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range All {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return Experiment{}
}

// runNamed runs the named experiment and checks that its table renders
// and contains want.
func runNamed(t *testing.T, name string, o Options, want string) []*core.Result {
	t.Helper()
	e := byName(t, name)
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e.WriteText(&buf, o, res)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("%s: rendering lacks %q:\n%s", name, want, buf.String())
	}
	return res
}

func TestFigure5Structure(t *testing.T) {
	rows := fig5Rows(runNamed(t, "fig5", quick, "raytrace"))
	if len(rows) != 11 { // 10 benchmarks + geomean
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	if rows[len(rows)-1].Name != "geomean" {
		t.Error("last row not geomean")
	}
	for _, r := range rows {
		if r.FastTrack <= 1 || r.Aikido <= 1 {
			t.Errorf("%s: slowdowns not > 1: %+v", r.Name, r)
		}
	}
	// Headline claims at small scale: raytrace is the biggest win and the
	// geomean favours Aikido.
	var ray, geo ThreadPoint
	for _, r := range rows {
		switch r.Name {
		case "raytrace":
			ray = r
		case "geomean":
			geo = r
		}
	}
	if s := ray.FastTrack / ray.Aikido; s < 2 {
		t.Errorf("raytrace speedup = %.2f, want large", s)
	}
	if s := geo.FastTrack / geo.Aikido; s < 1.2 {
		t.Errorf("geomean speedup = %.2f, want > 1.2", s)
	}
}

func TestFigure6Structure(t *testing.T) {
	rows, _ := table2Rows(runNamed(t, "fig6", quick, "%"))
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.SharedFrac < 0 || r.SharedFrac > 1 {
			t.Errorf("%s: measured fraction %v out of range", r.Name, r.SharedFrac)
		}
		if r.PaperSharedFrac <= 0 {
			t.Errorf("%s: missing paper value", r.Name)
		}
	}
}

func TestTable1Structure(t *testing.T) {
	// Table 1's orderings (Aikido wins at low thread counts) only emerge
	// once startup costs amortize, so this test runs at full scale, as
	// the paper's measurements do.
	cells := table1Sweep.points(runNamed(t, "table1", Options{}, "fluidanimate"))
	if len(cells) != 6 { // 2 benchmarks × 3 thread counts
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	// Overheads must rise with thread count for both detectors, and
	// Aikido must win at 2 and 4 threads (the paper's Table 1 claims).
	byName := map[string][]ThreadPoint{}
	for _, c := range cells {
		byName[c.Name] = append(byName[c.Name], c)
	}
	for name, cs := range byName {
		if len(cs) != 3 {
			t.Fatalf("%s: %d cells", name, len(cs))
		}
		if !(cs[0].FastTrack < cs[1].FastTrack && cs[1].FastTrack < cs[2].FastTrack) {
			t.Errorf("%s: FastTrack overhead not rising with threads: %+v", name, cs)
		}
		for _, c := range cs[:2] {
			if c.Aikido >= c.FastTrack {
				t.Errorf("%s@%d threads: Aikido (%.1fx) not faster than FastTrack (%.1fx)",
					name, c.Threads, c.Aikido, c.FastTrack)
			}
		}
	}
}

func TestTable2Structure(t *testing.T) {
	rows, reduction := table2Rows(runNamed(t, "table2", quick, "geomean reduction"))
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.MemRefs == 0 {
			t.Errorf("%s: zero mem refs", r.Name)
		}
		if r.Instrumented < r.SharedAccess {
			t.Errorf("%s: instrumented (%d) < shared accesses (%d)",
				r.Name, r.Instrumented, r.SharedAccess)
		}
		if r.SharedFrac > r.InstrFrac+1e-9 {
			t.Errorf("%s: shared frac exceeds instrumented frac", r.Name)
		}
	}
	// Paper: 6.75x geomean reduction. Small scale drifts, but the order
	// of magnitude must hold.
	if reduction < 3 || reduction > 15 {
		t.Errorf("instrumentation reduction = %.2fx, want near 6.75x", reduction)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1.0 {
		t.Errorf("zero scale not defaulted: %v", o.Scale)
	}
}

// TestWriteJSONRecords: -json's shape is one line per cell, in cell
// order, naming the experiment and the cell and carrying the cell's
// whole result.
func TestWriteJSONRecords(t *testing.T) {
	e := byName(t, "detectors")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf, quick, res); err != nil {
		t.Fatal(err)
	}
	var labels []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for i := 0; sc.Scan(); i++ {
		var rec struct {
			Experiment string
			Label      string
			Result     struct {
				Cycles   uint64
				Findings map[string]json.RawMessage
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if rec.Experiment != "detectors" || i >= len(res) || rec.Result.Cycles != res[i].Cycles ||
			len(rec.Result.Findings) != len(res[i].Findings) {
			t.Errorf("line %d: %+v does not match cell %d", i+1, rec, i)
		}
		labels = append(labels, rec.Label)
	}
	want := []string{"canneal/native", "canneal/fasttrack-full", "canneal/aikido-mux"}
	if strings.Join(labels, " ") != strings.Join(want, " ") {
		t.Errorf("labels = %q, want %q", labels, want)
	}
}

// jsonOf runs the named experiment and returns its -json records.
func jsonOf(t *testing.T, name string, o Options) string {
	t.Helper()
	e := byName(t, name)
	res, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, o, err)
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf, o, res); err != nil || buf.Len() == 0 {
		t.Fatalf("%s: %d bytes of records: %v", name, buf.Len(), err)
	}
	return buf.String()
}

// TestBenchJSONDeterministicAcrossWorkers is the runner's equivalence
// contract on the -json records of Figure 5's cells: they are
// byte-identical at any runner pool size.
func TestBenchJSONDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := quick
		o.Workers = workers
		return jsonOf(t, "fig5", o)
	}
	ref := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != ref {
			t.Errorf("workers=%d: JSON differs from sequential reference", workers)
		}
	}
}

// TestTextExperimentsDeterministicAcrossWorkers: the text renderings of
// the sweep-based experiments, the mux amortization, epochs and nondet
// tables among them, are identical at any pool size.
func TestTextExperimentsDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := quick
		o.Workers = workers
		var buf bytes.Buffer
		for _, name := range []string{"fig5", "muxbench", "epochs", "nondet"} {
			e := byName(t, name)
			res, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			e.WriteText(&buf, o, res)
		}
		return buf.String()
	}
	ref := render(1)
	if got := render(7); got != ref {
		t.Error("workers=7: text output differs from sequential reference")
	}
}

func TestExtensionScaling(t *testing.T) {
	pts := scalingSweep.points(runNamed(t, "scaling", Options{}, "threads"))
	if len(pts) != 15 { // 3 benchmarks × 5 thread counts
		t.Fatalf("points = %d, want 15", len(pts))
	}
	byName := map[string][]ThreadPoint{}
	for _, p := range pts {
		byName[p.Name] = append(byName[p.Name], p)
	}
	// Low-sharing blackscholes: Aikido wins at every thread count.
	for _, p := range byName["blackscholes"] {
		if p.Aikido >= p.FastTrack {
			t.Errorf("blackscholes@%d: Aikido (%.1fx) not faster", p.Threads, p.Aikido)
		}
	}
	// High-sharing fluidanimate: the advantage erodes with threads and
	// reverses at high counts (the crossover the paper observed at 8).
	fl := byName["fluidanimate"]
	first, last := fl[1], fl[len(fl)-1] // 2 threads vs 16 threads
	rFirst := first.FastTrack / first.Aikido
	rLast := last.FastTrack / last.Aikido
	if rLast >= rFirst {
		t.Errorf("fluidanimate ratio did not erode: %.2f@%d -> %.2f@%d",
			rFirst, first.Threads, rLast, last.Threads)
	}
	if rLast >= 1.0 {
		t.Errorf("fluidanimate@16: no crossover (ratio %.2f)", rLast)
	}
}

func TestExtensionDetectors(t *testing.T) {
	rows := detectorRows(runNamed(t, "detectors", Options{}, "RNG race"))
	byVariant := map[string]DetectorRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	full := byVariant["fasttrack-full"]
	aikido := byVariant["aikido:fasttrack"]
	ls := byVariant["aikido:lockset"]

	// The positioning claims (paper §1):
	// Aikido accelerates the analysis without losing the §5.3 race…
	if !full.FoundRNGRace || !aikido.FoundRNGRace {
		t.Error("FastTrack variants missed the RNG race")
	}
	// …and since the registry refactor the Aikido row is ONE multiplexed
	// pass hosting FOUR analyses — which still beats a single
	// full-instrumentation analysis on this low-sharing model.
	if !aikido.Multiplexed || !ls.Multiplexed {
		t.Error("aikido rows should come from the multiplexed pass")
	}
	if aikido.Slow >= full.Slow {
		t.Error("multiplexed Aikido pass not faster than one full-instrumentation analysis")
	}
	// Every multiplexed analysis consumed the same shared access stream.
	for _, name := range []string{"aikido:lockset", "aikido:atomicity", "aikido:commgraph"} {
		if got := byVariant[name].Analyzed; got != aikido.Analyzed {
			t.Errorf("%s analyzed %d, fasttrack %d — same shared stream expected",
				name, got, aikido.Analyzed)
		}
	}
	if !ls.FoundRNGRace {
		t.Error("LockSet missed the unlocked RNG state")
	}
}
