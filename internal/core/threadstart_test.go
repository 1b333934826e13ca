package core

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// spawnSpec is a spawn-only program: the main thread starts n workers,
// each writes one word of its own private page and halts, and the main
// thread joins them. Nothing is shared, so its cost is thread start.
func spawnSpec(n int) workload.Spec {
	return workload.Spec{Name: "spawn-only", Threads: n, Iters: 1, PrivateOps: 1, PrivatePages: 1}
}

func spawnOnly(tb testing.TB, n int) *isa.Program {
	tb.Helper()
	prog, err := spawnSpec(n).Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// runHeap reports the heap bytes and objects one Run of prog under cfg
// allocates, NewSystem included: the least of three runs each, so a
// runtime pool refill in one of them does not count.
func runHeap(t *testing.T, prog *isa.Program, cfg Config) (bytes, objects uint64) {
	t.Helper()
	bytes, objects = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(prog, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// threadStartCost reports what one more thread costs a whole
// Aikido-FastTrack run: the heap bytes and objects Run allocates for 33
// spawned workers minus those for one, per extra worker.
func threadStartCost(t *testing.T) (bytes, objects float64) {
	const extra = 32
	cfg := DefaultConfig(ModeAikidoFastTrack)
	oneB, oneO := runHeap(t, spawnOnly(t, 1), cfg)
	manyB, manyO := runHeap(t, spawnOnly(t, 1+extra), cfg)
	bytes, objects = float64(manyB-oneB)/extra, float64(manyO-oneO)/extra
	t.Logf("each started thread allocates %.0f bytes in %.1f objects (1 worker: %d bytes, %d objects; %d workers: %d bytes, %d objects)",
		bytes, objects, oneB, oneO, 1+extra, manyB, manyO)
	return bytes, objects
}

// TestAikidoThreadStartBytes bounds the bytes one more thread costs a
// whole Aikido-FastTrack run. Besides its thread, its view (one shadow
// table, whose cells also hold the thread's protection exceptions, and
// the host TLB), its VMAs and the frame it writes, a worker materializes
// a chunk of its shadow table, and its stack a chunk of the shared
// protection table. A worker costs about 10 KiB; 512-cell chunks would
// make it about 21 KiB, past the bound.
func TestAikidoThreadStartBytes(t *testing.T) {
	if perThread, _ := threadStartCost(t); perThread >= 16<<10 {
		t.Errorf("each started thread allocates %.0f bytes, want under %d", perThread, 16<<10)
	}
}

// TestAikidoThreadStartAllocs bounds the heap objects one more thread
// costs a whole Aikido-FastTrack run. A thread view with a second table
// for its exceptions, a frame slice per VMA, a mirror name built per
// segment and a vector-clock table copied per thread made it about 22.
func TestAikidoThreadStartAllocs(t *testing.T) {
	if _, perThread := threadStartCost(t); perThread >= 18 {
		t.Errorf("each started thread allocates %.1f objects, want under 18", perThread)
	}
}

// TestZeroPrivatePageBytes bounds what a data page nobody writes costs a
// whole run, NewSystem included: 8 workers that each write one word of
// their first private page, with 1 and with 33 private pages per worker,
// per extra page. The loader maps every page of the data segment but
// writes none of the zero ones, so an extra page costs its page-table
// entries and its share of the paged tables' chunks, not a 4 KiB page.
func TestZeroPrivatePageBytes(t *testing.T) {
	const workers, extra = 8, 32
	compile := func(pages int) *isa.Program {
		prog, err := workload.Spec{Name: "zero-pages", Threads: workers, Iters: 1,
			PrivateOps: 1, PrivatePages: pages}.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	one, many := compile(1), compile(1+extra)
	for _, mode := range []Mode{ModeNative, ModeAikidoFastTrack} {
		cfg := DefaultConfig(mode)
		a, _ := runHeap(t, one, cfg)
		b, _ := runHeap(t, many, cfg)
		perPage := (float64(b) - float64(a)) / (workers * extra)
		t.Logf("%v: each zero private page allocates %.0f bytes (%d bytes with 1 page a worker, %d with %d)",
			mode, perPage, a, b, 1+extra)
		if perPage >= 512 {
			t.Errorf("%v: each zero private page allocates %.0f bytes, want under 512", mode, perPage)
		}
	}
}

// BenchmarkThreadStart measures thread start end to end: compile,
// NewSystem and Run of a 16-worker spawn-only program under
// Aikido-FastTrack.
func BenchmarkThreadStart(b *testing.B) {
	src := spawnSpec(16)
	cfg := DefaultConfig(ModeAikidoFastTrack)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := src.Compile()
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
