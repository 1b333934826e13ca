package hypervisor_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// The fuzzed address space: fuzzPages data pages from baseVpn, the page
// after them never mapped, a pool of fuzzFrames frames that guest maps
// and remaps draw from (the data pages' own frames and two spares), and
// the three fault-delivery pages at faultVpn.
const (
	fuzzPages  = 4
	fuzzFrames = fuzzPages + 2
	baseVpn    = 0x10000
	faultVpn   = 0x20000
	maxFuzzOps = 96
)

// fuzzTIDs are the threads a sequence runs. TID 65 shares TID 1's bit in
// the hypervisor's reverse map (TID mod 64).
var fuzzTIDs = [4]guest.TID{1, 2, 3, 65}

// guestProts are the protections guest maps and SetProt install: data,
// read-only, no access, and kernel-only.
var guestProts = [4]pagetable.Prot{pagetable.ProtRW, pagetable.ProtRO, pagetable.ProtNone,
	pagetable.ProtRead | pagetable.ProtWrite}

// threadProts are the per-thread overrides SetThreadProt installs.
var threadProts = [3]pagetable.Prot{pagetable.ProtRW, pagetable.ProtNone, pagetable.ProtRO}

// fuzzVM is one AikidoVM over its own machine and guest page table.
type fuzzVM struct {
	m      *vm.Machine
	pt     *pagetable.Table
	h      *hypervisor.Hypervisor
	lib    *hypervisor.Lib
	frames [fuzzFrames]vm.FrameID
	// twin drops every cached translation before each access.
	twin bool
	// attempted counts user translations: one per user access, two for
	// one that straddles a page end unless its first half faults.
	attempted uint64
}

func newFuzzVM(twin bool) *fuzzVM {
	f := &fuzzVM{m: vm.NewMachine(), pt: pagetable.New(), twin: twin}
	f.h = hypervisor.New(f.m, f.pt, &stats.Clock{})
	f.lib = f.h.Lib()
	for i := range f.frames {
		f.frames[i] = f.m.AllocFrames(1)
	}
	for i := 0; i < fuzzPages; i++ {
		f.pt.Map(baseVpn+uint64(i), f.frames[i], pagetable.ProtRW)
	}
	for i, prot := range []pagetable.Prot{pagetable.ProtWrite | pagetable.ProtUser, pagetable.ProtRO, pagetable.ProtRW} {
		f.pt.Map(faultVpn+uint64(i), f.m.AllocFrames(1), prot)
	}
	f.lib.RegisterFaultPages(faultVpn*vm.PageSize, (faultVpn+1)*vm.PageSize, (faultVpn+2)*vm.PageSize)
	return f
}

// outcome is what one access shows the guest.
type outcome struct {
	val                       uint64
	faulted, aikido, unmapped bool
	addr, fakeAddr, slot      uint64
}

// access performs one load or store and records its outcome.
func (f *fuzzVM) access(tid guest.TID, addr uint64, size uint8, write, user bool, val uint64) outcome {
	if f.twin {
		hypervisor.DropTranslations(f.h, baseVpn, fuzzPages)
	}
	var o outcome
	var fault *hypervisor.Fault
	if write {
		fault = f.h.Store(tid, addr, size, val, user)
	} else {
		o.val, fault = f.h.Load(tid, addr, size, user)
	}
	if user {
		f.attempted++
		if vm.PageOff(addr)+uint64(size) > vm.PageSize && (fault == nil || fault.Addr != addr) {
			f.attempted++
		}
	}
	if fault != nil {
		o = outcome{faulted: true, aikido: fault.Aikido, unmapped: fault.Unmapped, addr: fault.Addr, fakeAddr: fault.FakeAddr}
		if fault.Aikido {
			o.slot, _ = f.lib.FaultInfo(fault)
		}
	}
	return o
}

// step decodes one 5-byte record and applies it. Accesses return their
// outcome; every other operation returns the zero outcome.
func (f *fuzzVM) step(op, a, b, c, d byte) outcome {
	vpn := baseVpn + uint64(a%fuzzPages)
	tid := fuzzTIDs[(a>>2)%4]
	off := (uint64(b)<<8 | uint64(c)) & vm.PageMask
	if op&0x80 != 0 {
		off = vm.PageSize - 1 - uint64(c%16) // within 16 bytes of the page end
	}
	addr := vpn*vm.PageSize + off
	size := uint8(1) << (d % 4)
	val := uint64(op)<<56 | uint64(a)<<48 | uint64(b)<<40 | uint64(c)<<32 | uint64(d)<<24 | 0xa5a5a5
	owners := [5]guest.TID{guest.NoTID, 1, 2, 3, 65}
	switch (op & 0x7f) % 18 {
	case 0, 1, 2, 3:
		return f.access(tid, addr, size, false, true, 0)
	case 4, 5, 6:
		return f.access(tid, addr, size, true, true, val)
	case 7:
		return f.access(tid, addr, size, false, false, 0)
	case 8: // map, or remap when vpn is mapped
		f.pt.Map(vpn, f.frames[d%fuzzFrames], guestProts[(d>>3)%4])
	case 9:
		f.pt.Unmap(vpn)
	case 10:
		f.pt.SetProt(vpn, guestProts[(d>>3)%4])
	case 11:
		f.lib.RearmPage(vpn, guest.NoTID)
	case 12:
		f.lib.UnprotectForThread(tid, vpn)
	case 13:
		f.lib.SetThreadProt(tid, vpn, threadProts[(d>>3)%3])
	case 14:
		f.lib.RearmPage(vpn, owners[c%5])
	case 15:
		f.lib.ClearRange(vpn, 1)
	case 16:
		f.lib.ClearRange(vpn, 1+int(c%3))
	default:
		f.h.ContextSwitch()
	}
	return outcome{}
}

// checkIdentity asserts that every user translation ended in exactly one
// of a TLB hit, a shadow fill, an Aikido fault or a guest fault.
func (f *fuzzVM) checkIdentity(t *testing.T, name string, i int) {
	t.Helper()
	s := f.h.Stats
	if got := s.TLBHits + s.ShadowFills + s.AikidoFaults + s.GuestFaults; got != f.attempted {
		t.Fatalf("%s record %d: TLBHits %d + ShadowFills %d + AikidoFaults %d + GuestFaults %d = %d, want %d user translations",
			name, i, s.TLBHits, s.ShadowFills, s.AikidoFaults, s.GuestFaults, got, f.attempted)
	}
}

// translateOracle runs the records of data on an AikidoVM and on a twin
// that drops every cached translation before each access, so that every
// twin access takes Translate's slow path. Every access must show the
// guest the same value, fault class and fault addresses on both, the
// frames must end equal, and the counters of each must account for every
// user translation exactly once.
func translateOracle(t *testing.T, data []byte) {
	if len(data) > 5*maxFuzzOps {
		data = data[:5*maxFuzzOps]
	}
	real, twin := newFuzzVM(false), newFuzzVM(true)
	for i, rec := 0, data; len(rec) >= 5; i, rec = i+1, rec[5:] {
		got := real.step(rec[0], rec[1], rec[2], rec[3], rec[4])
		want := twin.step(rec[0], rec[1], rec[2], rec[3], rec[4])
		if got != want {
			t.Fatalf("record %d % x: cached %+v, uncached %+v", i, rec[:5], got, want)
		}
		real.checkIdentity(t, "cached", i)
		twin.checkIdentity(t, "uncached", i)
	}
	var got, want [vm.PageSize]byte
	for i, id := range real.frames {
		real.m.Read(id, 0, got[:])
		twin.m.Read(twin.frames[i], 0, want[:])
		if got != want {
			t.Fatalf("frame %d differs at the end of the sequence", i)
		}
	}
}

// rec encodes one record: kind selects the operation (step's switch),
// page and tid index the data pages and fuzzTIDs, off is the page offset
// and d the size (d%4 as a power of two), frame and protection choices.
func rec(kind, page, tid int, off uint64, d byte) []byte {
	return []byte{byte(kind), byte(page | tid<<2), byte(off >> 8), byte(off), d}
}

func seq(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// Record kinds, as step decodes them.
const (
	kLoad, kStore, kKernelLoad                        = 0, 4, 7
	kMap, kUnmap, kSetProt                            = 8, 9, 10
	kProtect, kUnprotect, kSetThreadProt, kRearm      = 11, 12, 13, 14
	kClearOne, kClearRange, kSwitch                   = 15, 16, 17
	size8                                        byte = 3
)

// FuzzTranslate differentially fuzzes AikidoVM's translation caches (the
// per-thread host TLB and shadow tables) against the same hypervisor with
// both dropped before every access.
func FuzzTranslate(f *testing.F) {
	// A protection change must drop the TLB entry a load just filled.
	f.Add(seq(rec(kLoad, 0, 0, 8, size8), rec(kProtect, 0, 0, 0, 0), rec(kLoad, 0, 0, 8, size8)))
	// Page 1 remapped to page 0's never-written frame: a load through
	// page 0 warms its TLB entry, a store through page 1 materializes
	// the frame, and the next load through page 0 must see the store.
	f.Add(seq(rec(kMap, 1, 0, 0, 0), rec(kLoad, 0, 0, 0, size8), rec(kLoad, 1, 0, 0, size8),
		rec(kStore, 1, 0, 16, size8), rec(kLoad, 0, 0, 16, size8), rec(kStore, 0, 0, 24, size8),
		rec(kLoad, 1, 0, 24, size8)))
	// Straddles: a store across the end of page 0 into a protected page
	// 1 faults on its second half; a load across the last data page's
	// end faults on the unmapped page after it.
	f.Add(seq(rec(kLoad, 0, 1, 4088, size8), rec(kProtect, 1, 0, 0, 0),
		rec(kStore, 0, 1, 4092, size8), rec(kLoad, 3, 1, 4093, size8), rec(kLoad, 0, 1, 4088, size8)))
	// A kernel load of a page private to TID 1 temp-unprotects it, and
	// TID 65, which shares TID 1's reverse-map bit, keeps its own view.
	f.Add(seq(rec(kProtect, 2, 0, 0, 0), rec(kUnprotect, 2, 0, 0, 0), rec(kLoad, 2, 0, 0, size8),
		rec(kLoad, 2, 3, 0, size8), rec(kUnprotect, 2, 3, 0, 0), rec(kLoad, 2, 3, 8, size8),
		rec(kKernelLoad, 2, 1, 0, size8), rec(kLoad, 2, 0, 0, size8), rec(kLoad, 2, 3, 0, size8),
		rec(kRearm, 2, 0, 0, 0), rec(kLoad, 2, 3, 0, size8), rec(kLoad, 2, 0, 0, size8), rec(kSwitch, 0, 3, 0, 0)))
	// Guest protection changes: a load fills a read-only translation
	// and the store after it must fault; then a per-thread read-only
	// override, unmap and clear.
	f.Add(seq(rec(kStore, 3, 2, 0, size8), rec(kSetProt, 3, 0, 0, 8), rec(kLoad, 3, 2, 0, size8),
		rec(kStore, 3, 2, 0, size8), rec(kSetProt, 3, 0, 0, 0), rec(kSetThreadProt, 3, 2, 0, 16),
		rec(kLoad, 3, 2, 0, 2), rec(kStore, 3, 2, 0, size8), rec(kUnmap, 3, 0, 0, 0),
		rec(kLoad, 3, 2, 0, size8), rec(kClearRange, 2, 0, 2, 0), rec(kClearOne, 3, 0, 0, 0)))
	f.Fuzz(translateOracle)
}
