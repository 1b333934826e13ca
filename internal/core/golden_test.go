package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenAnalyses is the four-detector selection the golden pin records.
var goldenAnalyses = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// goldenCell is one pinned run. Its name is the cell's header line,
// unique in the file, so firstDiff names the cell that moved. counters,
// when set, prints the cell's extra counters after its cycles.
type goldenCell struct {
	name     string
	src      workload.Source
	cfg      Config
	counters func(io.Writer, *Result)
}

// goldenSources are the workloads of the detector cells: the ten PARSEC
// models at scale 0.25, plus the false-sharing, Zipf and migratory specs
// of the epoch experiment at the same scale.
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

// detectorCells runs every golden source under both detector modes with
// the four core detectors multiplexed.
func detectorCells() []goldenCell {
	var cells []goldenCell
	for _, src := range goldenSources() {
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			cells = append(cells, goldenCell{
				name: fmt.Sprintf("%s %s", src.SourceName(), mode),
				src:  src,
				cfg:  DefaultConfig(mode).WithAnalyses(goldenAnalyses...),
			})
		}
	}
	return cells
}

// muxCells are the runs of the mux amortization experiment
// (experiments.MuxAmortization) at scale 1: per PARSEC model, Aikido with
// each core detector alone, then with all four multiplexed. The
// experiment's sequential cycles are the sum of the four single cells;
// its mux cycles are the fifth.
func muxCells() []goldenCell {
	instructions := func(w io.Writer, r *Result) {
		fmt.Fprintf(w, "instructions %d\n", r.Engine.Instructions)
	}
	var cells []goldenCell
	for _, b := range parsec.All() {
		src := b.WithScale(1).Spec
		for _, names := range [][]string{{"fasttrack"}, {"lockset"}, {"atomicity"}, {"commgraph"}, goldenAnalyses} {
			cells = append(cells, goldenCell{
				name: fmt.Sprintf("%s scale=1 %s analyses=%s",
					src.SourceName(), ModeAikidoFastTrack, strings.Join(names, ",")),
				src:      src,
				cfg:      DefaultConfig(ModeAikidoFastTrack).WithAnalyses(names...),
				counters: instructions,
			})
		}
	}
	return cells
}

// epochCells are the runs of the epochs experiment (experiments.Epochs)
// at scale 1: its five workloads under Aikido-FastTrack with the
// terminal-Shared machine and with sharing.DefaultEpochPolicy. The
// workload specs repeat experiments.epochSuite at scale 1.
func epochCells() []goldenCell {
	phased := func(name string, stride, writePct, pagesPerPart int) workload.PhasedSpec {
		return workload.PhasedSpec{Name: name, Threads: 8, Phases: 6, PhaseIters: 400,
			PagesPerPart: pagesPerPart, OpsPerIter: 8, AluOps: 6,
			WritePct: writePct, MigrateStride: stride, WarmupOps: 1}
	}
	suite := []workload.Source{
		phased("phased", 0, 0, 2),
		phased("phased-readheavy", 0, 10, 2),
		phased("migratory", 1, 0, 2),
		phased("migratory-wide", 3, 0, 4),
		workload.FalseSharingSpec{Name: "falseshare", Threads: 8, Iters: 1200, Pages: 2,
			OpsPerIter: 6, AluOps: 6, SlotStride: 64},
	}
	off := DefaultConfig(ModeAikidoFastTrack)
	on := off
	on.Epoch = sharing.DefaultEpochPolicy()
	shared := func(w io.Writer, r *Result) {
		fmt.Fprintf(w, "shared-accesses %d\n", r.SD.SharedPageAccesses)
	}
	demotion := func(w io.Writer, r *Result) {
		shared(w, r)
		fmt.Fprintf(w, "epoch ticks=%d demoted-private=%d demoted-unused=%d reshared=%d pcs-uninstrumented=%d\n",
			r.EpochTicks, r.SD.PagesDemotedPrivate, r.SD.PagesDemotedUnused,
			r.SD.PagesReshared, r.SD.PCsUninstrumented)
	}
	var cells []goldenCell
	for _, src := range suite {
		prefix := fmt.Sprintf("%s scale=1 %s", src.SourceName(), ModeAikidoFastTrack)
		cells = append(cells,
			goldenCell{name: prefix + " epoch=off", src: src, cfg: off, counters: shared},
			goldenCell{name: prefix + " epoch=on", src: src, cfg: on, counters: demotion})
	}
	return cells
}

// TestDetectorGolden pins, per cell, the simulated cycles, the cell's
// extra counters and every analysis's Summary and Strings against
// testdata/detectors.golden. FastTrack's paged store is also checked
// against a map reference store (TestVarStoreEquivalence); LockSet, the
// atomicity checker and the communication-graph profiler have no such
// reference, so this file is their byte-identity pin. The muxbench and
// epochs experiments are sums and ratios of the mux and epoch cells, so
// their results are pinned here too. Regenerate with
// `go test ./internal/core -run TestDetectorGolden -update`, and only for
// a change that is meant to move a finding, a counter or a cycle.
func TestDetectorGolden(t *testing.T) {
	var buf bytes.Buffer
	cells := append(append(detectorCells(), muxCells()...), epochCells()...)
	for _, c := range cells {
		prog, err := c.src.Compile()
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		res, err := Run(prog, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&buf, "== %s\ncycles %d\n", c.name, res.Cycles)
		if c.counters != nil {
			c.counters(&buf, res)
		}
		for _, name := range res.AnalysisNames() {
			f := res.Findings[name]
			fmt.Fprintf(&buf, "%s: %s\n", name, f.Summary())
			for _, s := range f.Strings() {
				fmt.Fprintf(&buf, "  %s\n", s)
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
