package fasttrack

import (
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// fuzzAccess is one decoded access.
type fuzzAccess struct {
	tid   guest.TID
	pc    isa.PC
	addr  uint64
	size  uint8
	write bool
}

// fuzzDriver decodes 4-byte chunks of fuzz input into a stream of
// accesses and synchronization events, delivered to the detector in order.
// Addresses scatter across several pages (shadow chunk boundaries), sizes
// include 8-byte-block straddles, and some chunks repeat the previous
// access verbatim — the same-block runs FastTrack's same-epoch fast path
// serves with one clock comparison each.
type fuzzDriver struct {
	d *Detector
}

func (f *fuzzDriver) run(data []byte) {
	f.d.AddThread(4)
	var last fuzzAccess
	haveLast := false // a repeat needs an access since the last sync event
	for len(data) >= 4 {
		op, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		tid := guest.TID(1 + b1%4)
		switch {
		case op%16 == 15:
			lock := int64(1 + b2%3)
			if b3%2 == 0 {
				f.d.OnAcquire(tid, lock)
			} else {
				f.d.OnRelease(tid, lock)
			}
			haveLast = false
			continue
		case op%16 == 14 && haveLast:
			// Repeat the previous access verbatim.
		default:
			last = fuzzAccess{
				tid: tid, pc: isa.PC(op),
				addr:  0x10000 + (uint64(b2)*33+uint64(b3))%(4*4096),
				size:  uint8(1) << (b3 % 4),
				write: b2%2 == 0,
			}
			haveLast = true
		}
		f.d.OnAccess(last.tid, last.pc, last.addr, last.size, last.write)
	}
}

// FuzzVarStore is the shadow store's differential oracle: for any access
// and sync stream, the paged store must produce exactly the races,
// counters and simulated cycles of the retained map-based reference
// store, including across same-block runs, epoch flips between accesses
// and block straddles.
func FuzzVarStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	// A same-block write run with an epoch flip in the middle.
	f.Add([]byte{
		0, 1, 8, 0, 14, 0, 0, 0, 14, 0, 0, 0,
		15, 1, 0, 1, // release: tick thread 2's clock
		0, 1, 8, 0, 14, 0, 0, 0,
	})
	// Two threads straddling pages and blocks.
	f.Add([]byte{
		1, 0, 124, 3, 2, 1, 255, 1, 3, 2, 7, 2, 14, 0, 0, 0,
		15, 0, 1, 0, 1, 3, 124, 3, 2, 2, 255, 3,
	})
	f.Fuzz(varStoreOracle)
}

// varStoreOracle is the differential check shared by the fuzz target and
// the blocking corpus-replay test.
func varStoreOracle(t *testing.T, data []byte) {
	pagedClock, refClock := &stats.Clock{}, &stats.Clock{}
	paged := &fuzzDriver{d: New(pagedClock)}
	ref := &fuzzDriver{d: New(refClock)}
	ref.d.UseReferenceVarStore()
	paged.run(data)
	ref.run(data)
	if !reflect.DeepEqual(paged.d.Races(), ref.d.Races()) {
		t.Errorf("races diverge:\npaged:     %v\nreference: %v", paged.d.Races(), ref.d.Races())
	}
	if paged.d.C != ref.d.C {
		t.Errorf("counters diverge:\npaged:     %+v\nreference: %+v", paged.d.C, ref.d.C)
	}
	if pagedClock.Cycles() != refClock.Cycles() {
		t.Errorf("cycles diverge: paged %d, reference %d", pagedClock.Cycles(), refClock.Cycles())
	}
}
