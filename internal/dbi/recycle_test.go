package dbi

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// sharedPlanTool instruments every memory instruction with one prebuilt
// plan, so Instrument itself allocates nothing.
type sharedPlanTool struct{ plan *Plan }

func (s sharedPlanTool) Instrument(_ isa.PC, in isa.Instr) *Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return s.plan
}

// TestRebuildAfterFlushNoAllocs pins the allocation-free re-JIT: once a
// block has been built and flushed, flushing and rebuilding it at the
// same PC recycles the flushed struct, and slices the program's code and
// the engine's plan table instead of copying them.
func TestRebuildAfterFlushNoAllocs(t *testing.T) {
	b := isa.NewBuilder("rejit")
	g := b.GlobalU64(0)
	b.MovImm(isa.R1, 7)
	b.StoreAbs(g, isa.R1)
	b.LoadAbs(isa.R2, g)
	b.AddImm(isa.R2, isa.R2, 1)
	b.StoreAbs(g, isa.R2)
	b.Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{PreAccess: func(_ guest.TID, _ isa.PC, addr uint64, _ uint8, _ bool) uint64 { return addr }}
	e := New(p, nil, sharedPlanTool{plan}, &stats.Clock{}, DefaultConfig())

	first := e.lookup(1, 0)
	if n := e.Flush(2); n != 1 {
		t.Fatalf("Flush removed %d blocks, want 1", n)
	}
	if got := e.lookup(1, 0); got != first {
		t.Error("rebuild after Flush did not reuse the flushed block")
	}
	if n := testing.AllocsPerRun(100, func() {
		e.Flush(2)
		e.lookup(1, 0)
	}); n != 0 {
		t.Errorf("Flush plus rebuild allocates %.1f objects, want 0", n)
	}
	blk := e.blocks[0]
	if len(blk.instrs) != 6 || blk.plans[1] != plan || blk.plans[0] != nil || blk.plans[2] != plan || blk.plans[3] != nil {
		t.Errorf("rebuilt block: %d instrs, plans %v", len(blk.instrs), blk.plans)
	}
	// AllocsPerRun makes one warm-up call before its 100 measured ones.
	if e.C.BlocksBuilt != 103 || e.C.BlocksFlushed != 102 {
		t.Errorf("built %d, flushed %d; want 103, 102", e.C.BlocksBuilt, e.C.BlocksFlushed)
	}
}

// TestFlushInsidePreAccess covers a block flushed while it runs — what
// the epoch sweep does when it uninstruments from an instrumented access.
// The rest of the block must retire exactly as in a run whose PreAccess
// flushes nothing, and the next block built must recycle the flushed
// struct.
func TestFlushInsidePreAccess(t *testing.T) {
	b := isa.NewBuilder("flushself")
	g := b.GlobalArray(4)
	b.MovImm(isa.R1, 5)
	b.StoreAbs(g, isa.R1) // pc 1: its PreAccess flushes the running block
	b.AddImm(isa.R1, isa.R1, 3)
	b.StoreAbs(g+8, isa.R1)
	b.LoadAbs(isa.R2, g)
	b.Add(isa.R3, isa.R1, isa.R2)
	b.StoreAbs(g+16, isa.R3)
	b.Jmp("tail")
	b.Label("tail")
	b.LoadAbs(isa.R4, g+8)
	b.StoreAbs(g+24, isa.R4)
	b.Halt()
	prog := b.MustFinish()
	tail := prog.Labels["tail"]

	run := func(flush bool) (*Engine, *guest.Process, *block) {
		p, err := guest.NewProcess(vm.NewMachine(), prog)
		if err != nil {
			t.Fatal(err)
		}
		var e *Engine
		var running *block
		plan := &Plan{PreAccess: func(_ guest.TID, pc isa.PC, addr uint64, _ uint8, _ bool) uint64 {
			if flush && pc == 1 && running == nil {
				running = e.blocks[0]
				if n := e.Flush(pc); n != 1 {
					t.Errorf("Flush(%d) removed %d blocks, want 1", pc, n)
				}
			}
			return addr
		}}
		e = New(p, nil, sharedPlanTool{plan}, &stats.Clock{}, DefaultConfig())
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e, p, running
	}
	base, bp, _ := run(false)
	e, p, flushed := run(true)
	if flushed == nil {
		t.Fatal("the flushing PreAccess never ran")
	}
	if e.blocks[tail] != flushed {
		t.Error("the block built after the flush did not reuse the flushed struct")
	}
	if got, want := p.Thread(1).Regs, bp.Thread(1).Regs; got != want {
		t.Errorf("registers %v, want %v", got, want)
	}
	for i := uint64(0); i < 4; i++ {
		got, _ := e.Mem.Load(1, g+8*i, 8, true)
		want, _ := base.Mem.Load(1, g+8*i, 8, true)
		if got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
	if e.C.Instructions != base.C.Instructions || e.C.MemRefs != base.C.MemRefs {
		t.Errorf("retired %d instructions, %d memory refs; want %d, %d",
			e.C.Instructions, e.C.MemRefs, base.C.Instructions, base.C.MemRefs)
	}
	if e.C.BlocksFlushed != 1 {
		t.Errorf("BlocksFlushed = %d, want 1", e.C.BlocksFlushed)
	}
}

// TestFirstBuildsAllocateBySlab pins that a first build allocates nothing
// per block: a block slices the engine's per-PC tables and its struct
// comes from the engine's slab, so building 2×slabBlocks blocks on a
// fresh engine costs two slab allocations beyond New's own.
func TestFirstBuildsAllocateBySlab(t *testing.T) {
	b := isa.NewBuilder("firstbuilds")
	g := b.GlobalU64(0)
	for i := 0; i < 2*slabBlocks; i++ {
		b.StoreAbs(g, isa.R1)
	}
	b.Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{PreAccess: func(_ guest.TID, _ isa.PC, addr uint64, _ uint8, _ bool) uint64 { return addr }}
	tool, clock := sharedPlanTool{plan}, &stats.Clock{}
	var e *Engine
	newOnly := testing.AllocsPerRun(20, func() { e = New(p, nil, tool, clock, DefaultConfig()) })
	withBuilds := testing.AllocsPerRun(20, func() {
		e = New(p, nil, tool, clock, DefaultConfig())
		for pc := isa.PC(0); pc < 2*slabBlocks; pc++ {
			e.lookup(1, pc)
		}
	})
	if e.C.BlocksBuilt != 2*slabBlocks || e.blocks[5].plans[0] != plan {
		t.Fatalf("built %d blocks (plan %p), want %d instrumented", e.C.BlocksBuilt, e.blocks[5].plans[0], 2*slabBlocks)
	}
	if got := withBuilds - newOnly; got != 2 {
		t.Errorf("%d first builds allocate %.1f objects, want 2 slabs", 2*slabBlocks, got)
	}
}
