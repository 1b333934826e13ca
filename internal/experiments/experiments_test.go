package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// quick is a small-scale option set for fast tests.
var quick = Options{Scale: 0.2}

func TestFigure5Structure(t *testing.T) {
	rows, err := Figure5(quick)
	if err != nil {
		t.Fatal(err)
	}
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
		if r.Speedup <= 0 {
			t.Errorf("%s: bad speedup", r.Name)
		}
	}
	// Headline claims at small scale: raytrace is the biggest win and the
	// geomean favours Aikido.
	var ray, geo Fig5Row
	for _, r := range rows {
		switch r.Name {
		case "raytrace":
			ray = r
		case "geomean":
			geo = r
		}
	}
	if ray.Speedup < 2 {
		t.Errorf("raytrace speedup = %.2f, want large", ray.Speedup)
	}
	if geo.Speedup < 1.2 {
		t.Errorf("geomean speedup = %.2f, want > 1.2", geo.Speedup)
	}

	var buf bytes.Buffer
	WriteFigure5(&buf, rows)
	if !strings.Contains(buf.String(), "raytrace") {
		t.Error("rendering lost benchmarks")
	}
}

func TestFigure6Structure(t *testing.T) {
	rows, err := Figure6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Measured < 0 || r.Measured > 1 {
			t.Errorf("%s: measured fraction %v out of range", r.Name, r.Measured)
		}
		if r.Paper <= 0 {
			t.Errorf("%s: missing paper value", r.Name)
		}
	}
	var buf bytes.Buffer
	WriteFigure6(&buf, rows)
	if !strings.Contains(buf.String(), "%") {
		t.Error("rendering missing percentages")
	}
}

func TestTable1Structure(t *testing.T) {
	// Table 1's orderings (Aikido wins at low thread counts) only emerge
	// once startup costs amortize, so this test runs at full scale, as
	// the paper's measurements do.
	cells, err := Table1(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 { // 2 benchmarks × 3 thread counts
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	// Overheads must rise with thread count for both detectors, and
	// Aikido must win at 2 and 4 threads (the paper's Table 1 claims).
	byName := map[string][]Table1Cell{}
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
	var buf bytes.Buffer
	WriteTable1(&buf, cells)
	if !strings.Contains(buf.String(), "fluidanimate") {
		t.Error("rendering lost rows")
	}
}

func TestTable2Structure(t *testing.T) {
	rows, reduction, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	WriteTable2(&buf, rows, reduction)
	if !strings.Contains(buf.String(), "geomean reduction") {
		t.Error("rendering missing reduction line")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1.0 {
		t.Errorf("zero scale not defaulted: %v", o.Scale)
	}
}

// TestBenchJSONDeterministicAcrossWorkers is the CI equivalence contract:
// the rendered -json report is byte-identical at any runner pool size.
func TestBenchJSONDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := quick
		o.Workers = workers
		rep, err := BenchJSON(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteBenchJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.String()
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
// tables among them, are also identical at any pool size.
func TestTextExperimentsDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := quick
		o.Workers = workers
		var buf bytes.Buffer
		f5, err := Figure5(o)
		if err != nil {
			t.Fatal(err)
		}
		WriteFigure5(&buf, f5)
		mux, err := MuxAmortization(o)
		if err != nil {
			t.Fatal(err)
		}
		WriteMuxAmortization(&buf, mux)
		ep, err := Epochs(o)
		if err != nil {
			t.Fatal(err)
		}
		WriteEpochs(&buf, ep)
		nondet, err := ExtensionNondeterminator(o)
		if err != nil {
			t.Fatal(err)
		}
		WriteExtensionNondeterminator(&buf, nondet)
		return buf.String()
	}
	ref := render(1)
	if got := render(7); got != ref {
		t.Error("workers=7: text output differs from sequential reference")
	}
}

func TestExtensionScaling(t *testing.T) {
	pts, err := ExtensionScaling(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 15 { // 3 benchmarks × 5 thread counts
		t.Fatalf("points = %d, want 15", len(pts))
	}
	byName := map[string][]ScalingPoint{}
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
	var buf bytes.Buffer
	WriteExtensionScaling(&buf, pts)
	if !strings.Contains(buf.String(), "threads") {
		t.Error("rendering incomplete")
	}
}

func TestExtensionDetectors(t *testing.T) {
	rows, err := ExtensionDetectors(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	WriteExtensionDetectors(&buf, rows)
	if !strings.Contains(buf.String(), "RNG race") {
		t.Error("rendering incomplete")
	}
}
