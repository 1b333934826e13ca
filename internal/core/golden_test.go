package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parsec"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenAnalyses is the four-detector selection the golden pin records.
var goldenAnalyses = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// goldenSources are the pinned workloads: the ten PARSEC models at scale
// 0.25, plus the false-sharing, Zipf and migratory specs of the epoch
// experiment at the same scale.
func goldenSources() []workload.Source {
	var out []workload.Source
	for _, b := range parsec.All() {
		out = append(out, b.WithScale(0.25).Spec)
	}
	zipf := func(name string, skew float64) workload.ZipfSpec {
		return workload.ZipfSpec{Name: name, Threads: 8, Iters: 75, Pages: 16,
			OpsPerIter: 8, AluOps: 4, Skew: skew}
	}
	return append(out,
		workload.FalseSharingSpec{Name: "falseshare", Threads: 8, Iters: 300, Pages: 2,
			OpsPerIter: 6, AluOps: 6, SlotStride: 64},
		zipf("zipf-hot", 1.2),
		zipf("zipf-uniform", 0),
		workload.PhasedSpec{Name: "migratory", Threads: 8, Phases: 6, PhaseIters: 100,
			PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, MigrateStride: 1, WarmupOps: 1})
}

// TestDetectorGolden pins, per workload and detector configuration, the
// simulated cycles and every analysis's Summary and Strings against
// testdata/detectors.golden. FastTrack's paged store is also checked
// against a map reference store (TestVarStoreEquivalence); LockSet, the
// atomicity checker and the communication-graph profiler have no such
// reference, so this file is their byte-identity pin. Regenerate with
// `go test ./internal/core -run TestDetectorGolden -update`, and only for
// a change that is meant to move a finding, a counter or a cycle.
func TestDetectorGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, src := range goldenSources() {
		prog, err := src.Compile()
		if err != nil {
			t.Fatalf("%s: build: %v", src.SourceName(), err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			res, err := Run(prog, DefaultConfig(mode).WithAnalyses(goldenAnalyses...))
			if err != nil {
				t.Fatalf("%s/%s: %v", src.SourceName(), mode, err)
			}
			fmt.Fprintf(&buf, "== %s %s\ncycles %d\n", src.SourceName(), mode, res.Cycles)
			for _, name := range res.AnalysisNames() {
				f := res.Findings[name]
				fmt.Fprintf(&buf, "%s: %s\n", name, f.Summary())
				for _, s := range f.Strings() {
					fmt.Fprintf(&buf, "  %s\n", s)
				}
			}
		}
	}
	path := filepath.Join("testdata", "detectors.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("detector output differs from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line of two texts with its line
// number, so a failure names the cell and analysis that moved.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "== ") {
			header = w
		}
		if w != g {
			return fmt.Sprintf("line %d (in %q):\n  want %q\n  got  %q", i+1, header, w, g)
		}
	}
	return "(no line differs)"
}
