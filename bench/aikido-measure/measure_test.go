package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/parsec"
	"repro/internal/workload"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if got := workloadNames(); strings.Join(ws, ", ") != got {
		t.Errorf("BENCHMARK.json workloads %v, command has %s", ws, got)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// printed runs the report through print and returns its JSON result line.
func printed(t *testing.T, rep *report) result {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	return r
}

func names(r result) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a tiny size, untraced twice and traced
// once.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, scale: 0.05, minPasses: 2}
			a, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			ra := printed(t, a)
			if !ra.Correct || ra.Failed != 0 || ra.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d %v", ra.Correct, ra.Attempted, ra.Failed, a.failures)
			}
			if got := names(ra); !reflect.DeepEqual(got, endToEnd) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, endToEnd)
			}

			b, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			rb := printed(t, b)
			if ra.Metrics["sim_slowdown_x"] != rb.Metrics["sim_slowdown_x"] || ra.Failed != rb.Failed {
				t.Errorf("same seed, different deterministic metrics: %v/%d vs %v/%d",
					ra.Metrics["sim_slowdown_x"], ra.Failed, rb.Metrics["sim_slowdown_x"], rb.Failed)
			}

			// measure fails if a traced Result differs from the untraced one.
			o.trace = true
			o.chrome = t.TempDir() + "/trace.json"
			tr, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			rt := printed(t, tr)
			if got := names(rt); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, perLayer)
			}
			if rt.Metrics["analysis.fasttrack.calls"].Value == 0 || rt.Metrics["provider.switch.calls"].Value == 0 {
				t.Errorf("traced run saw no calls: %+v", rt.Metrics)
			}
			if _, err := os.Stat(o.chrome); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSeedZeroKeepsCommittedSpecs checks that seed 0 leaves every spec as
// committed and that other seeds stay within the documented jitter.
func TestSeedZeroKeepsCommittedSpecs(t *testing.T) {
	for _, w := range workloads {
		base := w.specs(1)
		for i, c := range w.cells(0, 1) {
			if !reflect.DeepEqual(c.src, base[i]) {
				t.Errorf("%s: seed 0 changed %+v to %+v", w.name, base[i], c.src)
			}
		}
	}
	for i, b := range parsec.All() {
		if got := parsecSpecs(8)[i]; !reflect.DeepEqual(got, b.WithScale(8).Spec) {
			t.Errorf("parsec spec %s: %+v, want %+v", b.Name, got, b.WithScale(8).Spec)
		}
	}

	changed := false
	for _, w := range workloads {
		base := w.specs(1)
		for i, c := range w.cells(7, 1) {
			if !reflect.DeepEqual(c.src, base[i]) {
				changed = true
			}
			if z, ok := c.src.(workload.ZipfSpec); ok {
				if d := z.Skew - base[i].(workload.ZipfSpec).Skew; d > 0.1 || d < -0.1 {
					t.Errorf("%s: skew moved by %v", z.Name, d)
				}
			}
			if s, ok := c.src.(workload.Spec); ok {
				n, m := float64(s.Iters), float64(base[i].(workload.Spec).Iters)
				if n < 0.9*m-0.5 || n > 1.1*m+0.5 {
					t.Errorf("%s: iterations %v outside ±10%% of %v", s.Name, n, m)
				}
			}
		}
	}
	if !changed {
		t.Error("seed 7 changed no spec")
	}
}
