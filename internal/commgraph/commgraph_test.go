package commgraph_test

import (
	"testing"

	"repro/internal/commgraph"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

type Edge = commgraph.Edge

var New = commgraph.New

// cgOf and cgEdges recover the profiler's typed findings from a run (the
// removed deprecated Result.CG/CommEdges accessors' replacement).
func cgOf(r *core.Result) commgraph.Counters {
	return r.AnalysisFindings("commgraph").(*commgraph.Findings).Counters
}

func cgEdges(r *core.Result) []commgraph.WeightedEdge {
	return r.AnalysisFindings("commgraph").(*commgraph.Findings).Edges
}

func TestEdgeAccumulation(t *testing.T) {
	a := New(&stats.Clock{})
	a.OnAccess(1, 0, 0x1000, 8, true) // t1 writes
	a.OnAccess(2, 1, 0x1000, 8, false)
	a.OnAccess(2, 1, 0x1000, 8, false) // t2 reads twice: weight 2
	a.OnAccess(1, 2, 0x1000, 8, false) // own write: no edge
	a.OnAccess(3, 3, 0x1008, 8, false) // never written: no edge

	edges := a.Edges()
	if len(edges) != 1 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].Edge != (Edge{From: 1, To: 2}) || edges[0].Weight != 2 {
		t.Errorf("edge = %+v", edges[0])
	}
	if a.C.Communications != 2 {
		t.Errorf("communications = %d", a.C.Communications)
	}
	if a.C.Variables != 1 {
		t.Errorf("variables = %d", a.C.Variables)
	}
}

func TestHotPages(t *testing.T) {
	a := New(&stats.Clock{})
	// Page 1 carries 3 communications, page 2 carries 1.
	a.OnAccess(1, 0, 0x1000, 8, true)
	for i := 0; i < 3; i++ {
		a.OnAccess(2, 1, 0x1000, 8, false)
	}
	a.OnAccess(1, 2, 0x2000, 8, true)
	a.OnAccess(3, 3, 0x2000, 8, false)

	hot := a.HotPages(10)
	if len(hot) != 2 {
		t.Fatalf("hot pages = %v", hot)
	}
	if hot[0].VPN != 1 || hot[0].Weight != 3 {
		t.Errorf("hottest = %+v", hot[0])
	}
	if got := a.HotPages(1); len(got) != 1 {
		t.Errorf("HotPages(1) returned %d entries", len(got))
	}
}

// producerConsumer builds a pipeline program: one producer stores to a
// shared page, two consumers load the same slots, all with private filler
// work — real writer→reader communication for the profiler to observe.
func producerConsumer(t *testing.T, iters int) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("pipe")
	shared := b.Global(4096, 4096)
	tids := b.GlobalArray(3)

	entries := []string{"producer", "consumer", "consumer"}
	for i, entry := range entries {
		b.MovImm(isa.R4, int64(i))
		b.ThreadCreate(entry, isa.R4)
		b.StoreAbs(tids+uint64(8*i), isa.R0)
	}
	for i := range entries {
		b.LoadAbs(isa.R5, tids+uint64(8*i))
		b.ThreadJoin(isa.R5)
	}
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)

	b.Label("producer")
	b.MovImm(isa.R4, int64(shared))
	b.LoopN(isa.R2, int64(iters), func(b *isa.Builder) {
		for off := int64(0); off < 32; off += 8 {
			b.Store(isa.R4, off, isa.R2)
		}
	})
	b.Halt()

	b.Label("consumer")
	b.MovImm(isa.R4, int64(shared))
	b.LoopN(isa.R2, int64(iters), func(b *isa.Builder) {
		for off := int64(0); off < 32; off += 8 {
			b.Load(isa.R5, isa.R4, off)
		}
		b.Add(isa.R6, isa.R6, isa.R5) // private filler
	})
	b.Halt()

	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAikidoNearLossless: in steady state, the communication graph
// computed over Aikido's shared-only access stream matches the full-
// instrumentation graph — private accesses carry no communication. The
// discrepancy is confined to the warm-up window: writes executed before
// the page was discovered shared (and before the writing instruction was
// re-JITed) are unobserved, the generalization of the §6 first-two-access
// window. The iteration count is chosen so the pipeline runs for many
// scheduling quanta and the warm-up loss stays small.
func TestAikidoNearLossless(t *testing.T) {
	prog := producerConsumer(t, 4000)
	run := func(mode core.Mode) *core.Result {
		cfg := core.DefaultConfig(mode)
		cfg.Analyses = []string{"commgraph"}
		r, err := core.Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := run(core.ModeFastTrackFull) // "full" = conservative instrumentation
	aik := run(core.ModeAikidoFastTrack)

	if len(cgEdges(full)) == 0 {
		t.Fatal("no communication observed at all")
	}
	fullW := map[Edge]uint64{}
	for _, e := range cgEdges(full) {
		fullW[e.Edge] = e.Weight
	}
	aikW := map[Edge]uint64{}
	for _, e := range cgEdges(aik) {
		aikW[e.Edge] = e.Weight
	}
	// Every Aikido edge must exist in the full graph, and the total
	// communication must be nearly identical (the first access to each
	// eventually-shared page may slip through the §6 window).
	for e, w := range aikW {
		if fullW[e] == 0 {
			t.Errorf("Aikido found edge %v (weight %d) absent from full graph", e, w)
		}
	}
	if cgOf(aik).Communications == 0 {
		t.Fatal("Aikido observed no communication")
	}
	lost := int64(cgOf(full).Communications) - int64(cgOf(aik).Communications)
	if lost < 0 {
		t.Errorf("Aikido observed more communication (%d) than full (%d)",
			cgOf(aik).Communications, cgOf(full).Communications)
	}
	if float64(lost) > 0.10*float64(cgOf(full).Communications) {
		t.Errorf("Aikido lost %d of %d communications (> 10%%)", lost, cgOf(full).Communications)
	}
}

// TestAikidoMissesOneShotHandoff pins the warm-up effect itself: when a
// producer writes everything and exits before any consumer runs, the page
// only turns shared after the producer is gone, so Aikido observes the
// reads but none of the writes — the §6 false-negative window generalized
// to whole producer lifetimes. Full instrumentation sees the handoff.
func TestAikidoMissesOneShotHandoff(t *testing.T) {
	prog := producerConsumer(t, 80) // producer fits in one quantum
	cfgFull := core.DefaultConfig(core.ModeFastTrackFull)
	cfgFull.Analyses = []string{"commgraph"}
	full, err := core.Run(prog, cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	cfgAik := core.DefaultConfig(core.ModeAikidoFastTrack)
	cfgAik.Analyses = []string{"commgraph"}
	aik, err := core.Run(prog, cfgAik)
	if err != nil {
		t.Fatal(err)
	}
	if cgOf(full).Communications == 0 {
		t.Fatal("full instrumentation missed the handoff too (workload broken)")
	}
	if cgOf(aik).Communications != 0 {
		t.Skipf("scheduling interleaved the producer after all (%d comms observed)",
			cgOf(aik).Communications)
	}
}

// TestAikidoCheaper: on a sharing-light workload the Aikido-hosted profiler
// must be faster than full instrumentation.
func TestAikidoCheaper(t *testing.T) {
	spec := workload.Spec{
		Name: "cg-light", Threads: 4, Iters: 80,
		AluOps: 4, PrivateOps: 12, PrivatePages: 2,
		SharedOps: 1, SharedPeriod: 8, Locks: 1,
	}
	prog, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgFull := core.DefaultConfig(core.ModeFastTrackFull)
	cfgFull.Analyses = []string{"commgraph"}
	full, err := core.Run(prog, cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	cfgAik := core.DefaultConfig(core.ModeAikidoFastTrack)
	cfgAik.Analyses = []string{"commgraph"}
	aik, err := core.Run(prog, cfgAik)
	if err != nil {
		t.Fatal(err)
	}
	if aik.Cycles >= full.Cycles {
		t.Errorf("Aikido (%d cycles) not cheaper than full (%d cycles)", aik.Cycles, full.Cycles)
	}
}
