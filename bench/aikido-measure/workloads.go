package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/workload"
)

// mux4 is the four-detector selection of the mux experiments: every access
// that reaches the analyses fans out to all four.
var mux4 = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// cell is one program under one configuration: the unit a pass runs once.
type cell struct {
	name string
	src  workload.Source
	cfg  core.Config
	// cross is the other detector mode (Aikido ↔ FastTrack-full) whose
	// untimed reference run must find the same FastTrack race addresses.
	cross core.Mode
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// specs returns the workload's sources at the given size factor
	// (1 in the benchmark), before seed jitter.
	specs func(scale float64) []workload.Source
	mode  core.Mode
	an    []string
}

// workloads are the benchmark's four workloads. Each uses
// core.DefaultConfig plus an analysis list and nothing else, so a
// mechanism shows up here only by becoming the default.
var workloads = []workloadDef{
	// The paper's headline configuration (Figure 5): Aikido hosting
	// FastTrack over the PARSEC models. Host time goes to the dbi
	// interpreter, the hypervisor memory path and sharing's PreAccess;
	// the detector sees only the ~25% shared accesses.
	{name: "parsec-aikido", mode: core.ModeAikidoFastTrack, an: []string{"fasttrack"},
		specs: func(s float64) []workload.Source { return parsecSpecs(8 * s) }},
	// The same models with every access instrumented and fanned out to
	// four detectors. Sharing and the hypervisor are bypassed, so a
	// change to either should not move this workload.
	{name: "parsec-full", mode: core.ModeFastTrackFull, an: mux4,
		specs: func(s float64) []workload.Source { return parsecSpecs(4 * s) }},
	// Many-writer shared pages under Aikido with the four-detector mux:
	// sharing's mirror-redirect path and the analyses from the Aikido
	// side, a write-heavy counterpart to PARSEC's mostly-private reads.
	{name: "hot-shared", mode: core.ModeAikidoFastTrack, an: mux4,
		specs: func(s float64) []workload.Source { return hotSharedSpecs(4 * s) }},
	// Short many-thread programs with no steady state: compile,
	// NewSystem, first-touch faults and context switches dominate, and no
	// access is shared. The workload where setup_s matters.
	{name: "spawn-startup", mode: core.ModeAikidoFastTrack, an: []string{"fasttrack"},
		specs: func(s float64) []workload.Source { return startupSpecs(s) }},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// cells returns the workload's cells for a seed. Seed 0 keeps the
// committed specs; any other seed scales each spec's iteration count by a
// factor in [0.9, 1.1] and shifts each Zipf skew by up to ±0.1, drawn in
// spec order from a generator seeded by the seed alone.
func (w workloadDef) cells(seed int64, scale float64) []cell {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	cross := core.ModeFastTrackFull
	if w.mode == core.ModeFastTrackFull {
		cross = core.ModeAikidoFastTrack
	}
	var out []cell
	for _, src := range w.specs(scale) {
		src = jitter(src, rng)
		out = append(out, cell{
			name:  src.SourceName(),
			src:   src,
			cfg:   core.DefaultConfig(w.mode).WithAnalyses(w.an...),
			cross: cross,
		})
	}
	return out
}

// iters scales a committed iteration count, never below 1.
func iters(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// parsecSpecs are the ten PARSEC models at the given scale, as
// parsec.Benchmark.WithScale sizes them.
func parsecSpecs(scale float64) []workload.Source {
	var out []workload.Source
	for _, b := range parsec.All() {
		out = append(out, b.WithScale(scale).Spec)
	}
	return out
}

// hotSharedSpecs are the false-sharing, Zipf and migratory specs of the
// epoch, parallel and phase experiments, at the given scale.
func hotSharedSpecs(scale float64) []workload.Source {
	zipf := func(name string, skew float64) workload.ZipfSpec {
		return workload.ZipfSpec{Name: name, Threads: 8, Iters: iters(300, scale), Pages: 16,
			OpsPerIter: 8, AluOps: 4, Skew: skew}
	}
	return []workload.Source{
		workload.FalseSharingSpec{Name: "falseshare", Threads: 8, Iters: iters(1200, scale), Pages: 2,
			OpsPerIter: 6, AluOps: 6, SlotStride: 64},
		zipf("zipf-hot", 1.2),
		zipf("zipf-uniform", 0),
		workload.PhasedSpec{Name: "migratory", Threads: 8, Phases: 6, PhaseIters: iters(400, scale),
			PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, MigrateStride: 1, WarmupOps: 1},
	}
}

// startupSpecs are the static experiment's startup-dominated specs.
func startupSpecs(scale float64) []workload.Source {
	return []workload.Source{
		workload.Spec{Name: "startup-priv", Threads: 8, Iters: iters(4, scale),
			PrivateOps: 4, PrivatePages: 2, BarrierPeriod: 1},
		workload.Spec{Name: "spawn-burst", Threads: 16, Iters: iters(2, scale),
			PrivateOps: 2, PrivatePages: 1, AluOps: 2},
		workload.Spec{Name: "priv-wide", Threads: 8, Iters: iters(6, scale),
			PrivateOps: 6, PrivatePages: 4, AluOps: 2, BarrierPeriod: 1},
	}
}

// jitter applies one seed draw to a spec; a nil rng leaves it unchanged.
func jitter(src workload.Source, rng *rand.Rand) workload.Source {
	if rng == nil {
		return src
	}
	f := 0.9 + 0.2*rng.Float64()
	// The rounded count stays within ±10%, so counts below 10 never change.
	j := func(n int) int {
		lo, hi := (9*n+9)/10, 11*n/10 // ⌈0.9n⌉, ⌊1.1n⌋
		return max(lo, min(hi, int(math.Round(float64(n)*f))), 1)
	}
	switch s := src.(type) {
	case workload.Spec:
		s.Iters = j(s.Iters)
		return s
	case workload.FalseSharingSpec:
		s.Iters = j(s.Iters)
		return s
	case workload.PhasedSpec:
		s.PhaseIters = j(s.PhaseIters)
		return s
	case workload.ZipfSpec:
		s.Iters = j(s.Iters)
		s.Skew = math.Max(0, s.Skew+0.2*rng.Float64()-0.1)
		return s
	}
	panic(fmt.Sprintf("jitter: unhandled spec type %T", src))
}
