package dbi

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// walkerFixture returns a process with two data pages and the engine's
// walker over it, as dbi.New wires it for a run with no hypervisor.
func walkerFixture(tb testing.TB) (*guest.Process, *directMemory) {
	tb.Helper()
	bld := isa.NewBuilder("walker")
	bld.GlobalArray(1024) // 8 KiB of data → 2 data pages
	bld.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), bld.MustFinish())
	if err != nil {
		tb.Fatal(err)
	}
	return p, New(p, nil, nil, &stats.Clock{}, DefaultConfig()).Mem.(*directMemory)
}

// TestWalkerTLBWarmHitPath pins the walker's host-TLB hit path: once one
// load and one store have warmed a page's entry, N loads and N stores
// anywhere inside the page read back what they wrote, leave the entry in
// place and allocate nothing.
func TestWalkerTLBWarmHitPath(t *testing.T) {
	p, d := walkerFixture(t)
	if _, fault := d.Load(1, isa.DataBase, 8, true); fault != nil {
		t.Fatal(fault)
	}
	if fault := d.Store(1, isa.DataBase, 8, 1, true); fault != nil {
		t.Fatal(fault)
	}
	warm := func() {
		t.Helper()
		if _, writable, ok := d.tlb.Lookup(isa.DataBase, 8); !ok || !writable || d.gen != p.PT.Updates {
			t.Fatalf("entry for the warm page: ok %v, writable %v, gen %d (table at %d)", ok, writable, d.gen, p.PT.Updates)
		}
	}
	warm()
	const n = 64
	round := func() {
		for i := uint64(0); i < n; i++ {
			addr := isa.DataBase + i*64
			if fault := d.Store(1, addr, 8, i, true); fault != nil {
				t.Fatal(fault)
			}
			if v, fault := d.Load(1, addr, 8, true); fault != nil || v != i {
				t.Fatalf("load %#x = %d, %v; want %d", addr, v, fault, i)
			}
		}
	}
	round()
	warm()
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("a warm round allocates %.1f objects, want 0", a)
	}
}

// The fuzzed address space: walkPages data pages from walkVpn, the pages
// just before and after them never mapped, and a pool of walkFrames
// frames that maps and remaps draw from (the data pages' own frames and
// two spares).
const (
	walkPages  = 4
	walkFrames = walkPages + 2
	walkVpn    = 0x10000
	maxWalkOps = 96
)

// walkProts are the protections maps and protects install: data,
// read-only, no access, and kernel-only.
var walkProts = [4]pagetable.Prot{pagetable.ProtRW, pagetable.ProtRO, pagetable.ProtNone,
	pagetable.ProtRead | pagetable.ProtWrite}

// refWalker is the uncached reference: every access walks the guest page
// table and goes through the machine's checked accessors, as the engine's
// walker did before it had a TLB.
type refWalker struct {
	pt *pagetable.Table
	m  *vm.Machine
}

func (r refWalker) frame(addr uint64, a pagetable.Access) (vm.FrameID, *hypervisor.Fault) {
	pte, fault := r.pt.Walk(addr, a, true)
	if fault != nil {
		return vm.NoFrame, &hypervisor.Fault{Addr: addr, Access: a, Unmapped: fault.Unmapped}
	}
	return pte.Frame, nil
}

func (r refWalker) Load(_ guest.TID, addr uint64, size uint8, _ bool) (uint64, *hypervisor.Fault) {
	lo, fault := r.frame(addr, pagetable.AccessRead)
	if fault != nil {
		return 0, fault
	}
	off := vm.PageOff(addr)
	if off+uint64(size) <= vm.PageSize {
		return r.m.ReadU(lo, off, size), nil
	}
	hi, fault := r.frame(vm.PageBase(addr)+vm.PageSize, pagetable.AccessRead)
	if fault != nil {
		return 0, fault
	}
	return r.m.ReadSplit(lo, hi, off, size), nil
}

func (r refWalker) Store(_ guest.TID, addr uint64, size uint8, val uint64, _ bool) *hypervisor.Fault {
	lo, fault := r.frame(addr, pagetable.AccessWrite)
	if fault != nil {
		return fault
	}
	off := vm.PageOff(addr)
	if off+uint64(size) <= vm.PageSize {
		r.m.WriteU(lo, off, size, val)
		return nil
	}
	hi, fault := r.frame(vm.PageBase(addr)+vm.PageSize, pagetable.AccessWrite)
	if fault != nil {
		return fault
	}
	r.m.WriteSplit(lo, hi, off, size, val)
	return nil
}

// walkSpace is one machine and guest page table with a memory path over
// them: the engine's walker or the reference.
type walkSpace struct {
	m      *vm.Machine
	pt     *pagetable.Table
	mem    Memory
	frames [walkFrames]vm.FrameID
}

func newWalkSpace(cached bool) *walkSpace {
	w := &walkSpace{m: vm.NewMachine(), pt: pagetable.New()}
	if cached {
		w.mem = &directMemory{pt: w.pt, m: w.m}
	} else {
		w.mem = refWalker{pt: w.pt, m: w.m}
	}
	for i := range w.frames {
		w.frames[i] = w.m.AllocFrames(1)
	}
	for i := 0; i < walkPages; i++ {
		w.pt.Map(walkVpn+uint64(i), w.frames[i], pagetable.ProtRW)
	}
	return w
}

// walkOutcome is what one access shows the guest.
type walkOutcome struct {
	val               uint64
	faulted, unmapped bool
	addr              uint64
	access            pagetable.Access
}

// step decodes one 5-byte record and applies it. Accesses return their
// outcome; every other operation returns the zero outcome.
func (w *walkSpace) step(op, a, b, c, d byte) walkOutcome {
	vpn := walkVpn + uint64(a%walkPages)
	off := (uint64(b)<<8 | uint64(c)) & vm.PageMask
	if op&0x80 != 0 {
		off = vm.PageSize - 1 - uint64(c%16) // within 16 bytes of the page end
	}
	addr := vpn*vm.PageSize + off
	size := uint8(1) << (d % 4)
	var fault *hypervisor.Fault
	var o walkOutcome
	switch (op & 0x7f) % 10 {
	case 0, 1, 2, 3:
		o.val, fault = w.mem.Load(1, addr, size, true)
	case 4, 5, 6:
		val := uint64(op)<<56 | uint64(a)<<48 | uint64(b)<<40 | uint64(c)<<32 | uint64(d)<<24 | 0xa5a5a5
		fault = w.mem.Store(1, addr, size, val, true)
	case 7: // map, or remap when vpn is mapped
		w.pt.Map(vpn, w.frames[d%walkFrames], walkProts[(d>>3)%4])
	case 8:
		w.pt.Unmap(vpn)
	default:
		w.pt.SetProt(vpn, walkProts[(d>>3)%4])
	}
	if fault != nil {
		o = walkOutcome{faulted: true, unmapped: fault.Unmapped, addr: fault.Addr, access: fault.Access}
	}
	return o
}

// walkOracle runs the records of data through the engine's walker and
// through the uncached reference, each over its own machine and page
// table. Every access must show the guest the same value, fault presence,
// fault address, access kind and unmapped flag, and the frames must end
// equal.
func walkOracle(t *testing.T, data []byte) {
	if len(data) > 5*maxWalkOps {
		data = data[:5*maxWalkOps]
	}
	cached, ref := newWalkSpace(true), newWalkSpace(false)
	for i, rec := 0, data; len(rec) >= 5; i, rec = i+1, rec[5:] {
		got := cached.step(rec[0], rec[1], rec[2], rec[3], rec[4])
		want := ref.step(rec[0], rec[1], rec[2], rec[3], rec[4])
		if got != want {
			t.Fatalf("record %d % x: cached %+v, uncached %+v", i, rec[:5], got, want)
		}
	}
	var got, want [vm.PageSize]byte
	for i, id := range cached.frames {
		cached.m.Read(id, 0, got[:])
		ref.m.Read(ref.frames[i], 0, want[:])
		if got != want {
			t.Fatalf("frame %d differs at the end of the sequence", i)
		}
	}
}

// walkRec encodes one record: kind selects the operation (step's switch),
// page indexes the data pages, off is the page offset, and d the size
// (d%4 as a power of two), frame (d%6) and protection ((d>>3)%4).
func walkRec(kind, page int, off uint64, d byte) []byte {
	return []byte{byte(kind), byte(page), byte(off >> 8), byte(off), d}
}

// Record kinds and d values, as step decodes them.
const (
	wLoad, wStore, wMap, wUnmap, wProtect      = 0, 4, 7, 8, 9
	wSize2, wSize8, wRO, wNone, wKernel   byte = 1, 3, 8, 16, 24
)

// FuzzWalker differentially fuzzes the engine's cached page-table walker
// (native, dbi and FastTrack-full) against the uncached reference.
func FuzzWalker(f *testing.F) {
	seq := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// Page-end straddles: a store and a load across the end of page 0
	// into page 1, one across the last data page's end into the unmapped
	// page after it, and a store whose second half lands on a read-only
	// page, which must fault there and leave page 0 unwritten.
	f.Add(seq(walkRec(wStore, 0, 4092, wSize8), walkRec(wLoad, 0, 4092, wSize8),
		walkRec(wLoad, 1, 0, wSize8), walkRec(wLoad, 3, 4093, wSize8),
		walkRec(wProtect, 1, 0, wRO), walkRec(wLoad, 1, 8, wSize8),
		walkRec(wStore, 0, 4095, wSize2), walkRec(wLoad, 0, 4088, wSize8)))
	// Load → unmap → load: the unmap must drop the entry the first load
	// filled, and the refill of another page after it must not revive it.
	f.Add(seq(walkRec(wLoad, 0, 8, wSize8), walkRec(wLoad, 1, 8, wSize8), walkRec(wUnmap, 0, 0, 0),
		walkRec(wLoad, 1, 16, wSize8), walkRec(wLoad, 0, 8, wSize8)))
	// Load → protect read-only → store, on a written frame: the store must
	// fault, and so must one after a load refills the page read-only.
	// Kernel-only pages fault for the user too.
	f.Add(seq(walkRec(wStore, 1, 0, wSize8), walkRec(wLoad, 1, 0, wSize8), walkRec(wProtect, 1, 0, wRO),
		walkRec(wStore, 1, 0, wSize8), walkRec(wLoad, 1, 0, wSize8), walkRec(wStore, 1, 8, wSize8),
		walkRec(wLoad, 1, 8, wSize8), walkRec(wProtect, 2, 0, wKernel), walkRec(wLoad, 2, 0, wSize8),
		walkRec(wProtect, 2, 0, wNone), walkRec(wStore, 2, 0, wSize8)))
	// A load then a store on a never-written frame: the load fills a
	// writable entry, the store leaves the hit path to give the frame its
	// own page, and the accesses after it hit.
	f.Add(seq(walkRec(wLoad, 2, 0, wSize8), walkRec(wStore, 2, 16, wSize8), walkRec(wLoad, 2, 16, wSize8),
		walkRec(wStore, 2, 24, wSize8), walkRec(wLoad, 2, 24, wSize8)))
	// A remap to a new frame: page 3 moves to spare frame 4 and back to
	// its own frame 3, and each load must read the frame mapped now.
	f.Add(seq(walkRec(wStore, 3, 0, wSize8), walkRec(wLoad, 3, 0, wSize8), walkRec(wMap, 3, 0, 4),
		walkRec(wLoad, 3, 0, wSize8), walkRec(wStore, 3, 8, wSize8), walkRec(wMap, 3, 0, 3),
		walkRec(wLoad, 3, 8, wSize8), walkRec(wLoad, 3, 0, wSize8)))
	f.Fuzz(walkOracle)
}
