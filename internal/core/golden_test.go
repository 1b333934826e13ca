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

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/taint"
	"repro/internal/vm"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenAnalyses is the four-detector selection the golden pin records.
var goldenAnalyses = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// goldenCell is one pinned run. Its name is the cell's header line,
// unique in the file, so firstDiff names the cell that moved. counters,
// when set, prints the cell's extra counters after its cycles. setup,
// when set, configures the assembled system before it runs (taint's
// sources and sinks).
type goldenCell struct {
	name     string
	src      workload.Source
	cfg      Config
	counters func(io.Writer, *Result)
	setup    func(*System)
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
	on := DefaultConfig(ModeAikidoFastTrack)
	off := on
	off.Aikido.Epoch = sharing.EpochPolicy{}
	shared := func(w io.Writer, r *Result) {
		fmt.Fprintf(w, "shared-accesses %d\n", r.SD.SharedPageAccesses)
	}
	demotion := func(w io.Writer, r *Result) {
		shared(w, r)
		fmt.Fprintf(w, "epoch ticks=%d demoted-private=%d demoted-unused=%d reshared=%d pcs-uninstrumented=%d\n",
			r.SD.EpochSweeps, r.SD.PagesDemotedPrivate, r.SD.PagesDemotedUnused,
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

// builtSource adapts a hand-built guest program to workload.Source.
type builtSource struct {
	name  string
	build func() (*isa.Program, error)
}

func (s builtSource) Compile() (*isa.Program, error) { return s.build() }
func (s builtSource) SourceName() string             { return s.name }

// hostedCells are the scenario guests of the hosted detectors beyond the
// core four: SP-bags on the three fork-join programs under both detector
// modes, taint on the taintflow example's program and memcheck on a guest
// with one uninitialized read, both under full instrumentation.
func hostedCells() []goldenCell {
	var cells []goldenCell
	for _, spec := range []workload.ForkJoinSpec{
		{Name: "fj-clean", Elems: 128, LeafSize: 8},
		{Name: "fj-racy", Elems: 128, LeafSize: 8, RacyCounter: true},
		{Name: "fj-locked", Elems: 128, LeafSize: 8, LockCounter: true},
	} {
		src := builtSource{name: spec.Name, build: func() (*isa.Program, error) {
			return workload.BuildForkJoin(spec)
		}}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			cells = append(cells, goldenCell{
				name: fmt.Sprintf("%s %s analyses=spbags", spec.Name, mode),
				src:  src,
				cfg:  DefaultConfig(mode).WithAnalyses("spbags"),
			})
		}
	}
	var input, output uint64
	taintflow := builtSource{name: "taintflow", build: func() (*isa.Program, error) {
		var prog *isa.Program
		prog, input, output = taintflowProgram()
		return prog, nil
	}}
	return append(cells,
		goldenCell{
			name: fmt.Sprintf("taintflow %s analyses=taint", ModeFastTrackFull),
			src:  taintflow,
			cfg:  DefaultConfig(ModeFastTrackFull).WithAnalyses("taint"),
			setup: func(s *System) {
				tr := s.Analysis("taint").(*taint.Tracker)
				tr.AddSource(input, vm.PageSize)
				tr.AddSink(output, vm.PageSize)
			},
		},
		goldenCell{
			name: fmt.Sprintf("uninit-read %s analyses=memcheck", ModeFastTrackFull),
			src:  builtSource{name: "uninit-read", build: uninitReadProgram},
			cfg:  DefaultConfig(ModeFastTrackFull).WithAnalyses("memcheck"),
		})
}

// configCells pin the layers every other cell leaves unprinted, so that
// each simulated cost moves some cell: on vips at scale 0.25, Aikido's
// default configuration (AikidoVM's counters on a PARSEC model), then
// native and DBI-only; and the kernel-write guest, whose syscall reads a
// page no thread has touched. Each prints its hypervisor counters.
func configCells() []goldenCell {
	layers := func(w io.Writer, r *Result) {
		fmt.Fprintf(w, "hv %+v\n", r.HV)
	}
	vips, err := parsec.ByName("vips")
	if err != nil {
		panic(err)
	}
	src := vips.WithScale(0.25).Spec
	cells := []goldenCell{{name: fmt.Sprintf("%s %s analyses=fasttrack", src.SourceName(), ModeAikidoFastTrack),
		src: src, cfg: DefaultConfig(ModeAikidoFastTrack), counters: layers}}
	for _, mode := range []Mode{ModeNative, ModeDBI} {
		cells = append(cells, goldenCell{name: fmt.Sprintf("%s %s", src.SourceName(), mode),
			src: src, cfg: DefaultConfig(mode), counters: layers})
	}
	kwrite := builtSource{name: "kernel-write", build: func() (*isa.Program, error) {
		return kernelWriteProgram(), nil
	}}
	return append(cells, goldenCell{
		name: fmt.Sprintf("kernel-write %s", ModeAikidoFastTrack),
		src:  kwrite, cfg: DefaultConfig(ModeAikidoFastTrack), counters: layers})
}

// taintflowProgram is examples/taintflow's guest: untrusted input passes
// through arithmetic, a memory round-trip and the spawn argument to the
// output buffer, beside a clean constant write to the same buffer. It
// returns the input (source) and output (sink) page addresses.
func taintflowProgram() (prog *isa.Program, input, output uint64) {
	b := isa.NewBuilder("taintflow")
	input = b.Global(vm.PageSize, vm.PageSize)
	output = b.Global(vm.PageSize, vm.PageSize)
	scratch := b.Global(vm.PageSize, vm.PageSize)
	b.LoadAbs(isa.R4, input)
	b.MovImm(isa.R5, 0x5f)
	b.Xor(isa.R4, isa.R4, isa.R5)
	b.StoreAbs(scratch+32, isa.R4)
	b.LoadAbs(isa.R6, scratch+32)
	b.ThreadCreate("worker", isa.R6)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R7, 7)
	b.StoreAbs(output+64, isa.R7)
	b.ThreadJoin(isa.R9)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	b.Label("worker")
	b.AddImm(isa.R1, isa.R0, 100)
	b.StoreAbs(output, isa.R1)
	b.Halt()
	return b.MustFinish(), input, output
}

// uninitReadProgram reads a freshly mapped buffer before writing it, then
// exits cleanly: one uninitialized read and no crash.
func uninitReadProgram() (*isa.Program, error) {
	b := isa.NewBuilder("uninit-read")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.Load(isa.R5, isa.R4, 128) // uninitialized
	b.Store(isa.R4, 0, isa.R5)
	b.Load(isa.R6, isa.R4, 0) // defined by the store
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	return b.Finish()
}

// TestDetectorGolden pins, per cell, the simulated cycles, the cell's
// extra counters and every analysis's Summary and Strings against
// testdata/detectors.golden. FastTrack's paged store is also checked
// against a map reference store (TestVarStoreEquivalence); LockSet, the
// atomicity checker and the communication-graph profiler have no such
// reference, so this file is their byte-identity pin. The muxbench and
// epochs experiments are sums and ratios of the mux and epoch cells, so
// their results are pinned here too. The hosted cells pin taint, memcheck
// and SP-bags on their scenario guests: a source-to-sink flow, an
// uninitialized read, and the determinacy races of the serial depth-first
// execution (all 45 on the racy and locked fork-join programs under full
// instrumentation, 42 under Aikido). The config cells come last, so that
// raising any one simulated cost by a cycle moves at least one cell. Regenerate with
// `go test ./internal/core -run TestDetectorGolden -update`, and only for
// a change that is meant to move a finding, a counter or a cycle.
func TestDetectorGolden(t *testing.T) {
	var buf bytes.Buffer
	cells := append(append(append(append(detectorCells(), muxCells()...), epochCells()...), hostedCells()...), configCells()...)
	for _, c := range cells {
		prog, err := c.src.Compile()
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		s, err := NewSystem(prog, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.setup != nil {
			c.setup(s)
		}
		res, err := s.Run()
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
