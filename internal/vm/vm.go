// Package vm models the physical machine under the AikidoVM hypervisor: a
// flat array of page frames with raw, untranslated access.
//
// Everything above this package deals in *guest* addresses; only the
// hypervisor's translation path (internal/hypervisor) and loaders hold
// machine frame handles. Two guest-virtual pages aliasing one frame — the
// mechanism behind Aikido's mirror pages — is expressed simply by two page
// table entries naming the same FrameID.
//
// Frames are demand-zero, like the anonymous memory of the Linux processes
// Aikido runs: a freshly allocated FrameID costs no backing store until
// its first write. Until then it names one shared zero page, which is
// never written. The first write gives the ID its own page, in the ID's
// own slot, so every mapping of the ID sees it. That coherence holds
// because FrameIDs are the only frame handles that leave this package.
package vm

import (
	"encoding/binary"
	"fmt"
)

// PageShift is log2 of the page size. 4 KiB pages, as on x86-64.
const PageShift = 12

// PageSize is the machine page size in bytes.
const PageSize = 1 << PageShift

// PageMask extracts the offset within a page from an address.
const PageMask = PageSize - 1

// FrameID identifies one physical page frame. Frame 0 is reserved as the
// invalid frame so that the zero value of a PTE never aliases real memory.
type FrameID uint64

// NoFrame is the invalid frame.
const NoFrame FrameID = 0

// page is the backing store of one physical frame.
type page [PageSize]byte

// zeroPage backs every frame that has not been written yet. It is shared
// by all machines and only ever read.
var zeroPage page

// Machine is the physical memory of the simulated host.
// It is not safe for concurrent use; the simulator is single-goroutine by
// design (determinism is a core requirement, see "Determinism lint" in
// ARCHITECTURE.md).
type Machine struct {
	// frames is indexed directly by FrameID: IDs are allocated
	// sequentially and never reused, so the per-access frame resolution is
	// one bounds-checked load instead of a map probe. Slot 0 (NoFrame) is
	// permanently nil; freed frames leave nil holes; a frame that was
	// never written points at zeroPage.
	frames []*page
	live   int
	// slab holds zeroed pages no frame has taken yet; materialize hands
	// them out in order.
	slab []page
}

// slabPages is how many pages materialize allocates at once. A run's
// first writes then cost one allocation per slabPages pages, not one per
// page; a page stays allocated while any frame of its slab is live.
const slabPages = 16

// NewMachine returns an empty physical memory.
func NewMachine() *Machine {
	return &Machine{frames: make([]*page, 1, 64)}
}

// AllocFrame allocates a frame that reads as zero. Its backing page is
// allocated by the first write.
func (m *Machine) AllocFrame() FrameID {
	id := FrameID(len(m.frames))
	m.frames = append(m.frames, &zeroPage)
	m.live++
	return id
}

// FreeFrame releases a frame. Freeing NoFrame or an unknown frame is a
// simulator bug and panics.
func (m *Machine) FreeFrame(id FrameID) {
	if id == NoFrame || uint64(id) >= uint64(len(m.frames)) || m.frames[id] == nil {
		panic(fmt.Sprintf("vm: free of invalid frame %d", id))
	}
	m.frames[id] = nil
	m.live--
}

// Frames returns the number of live frames.
func (m *Machine) Frames() int { return m.live }

// frame returns the backing page, panicking on invalid frames: callers are
// the hypervisor/loader, which must never hold stale frame handles.
func (m *Machine) frame(id FrameID) *page {
	if uint64(id) < uint64(len(m.frames)) {
		if f := m.frames[id]; f != nil {
			return f
		}
	}
	panic(fmt.Sprintf("vm: access to invalid frame %d", id))
}

// materialize gives a never-written frame its own zeroed page, the next
// one in the slab. Writers call it only after their bounds checks pass,
// so a write that panics leaves the frame as it was.
func (m *Machine) materialize(id FrameID) *page {
	if len(m.slab) == 0 {
		m.slab = make([]page, slabPages)
	}
	f := &m.slab[0]
	m.slab = m.slab[1:]
	m.frames[id] = f
	return f
}

// Materialized reports whether frame id has its own page, i.e. whether
// it has been written since it was allocated.
func (m *Machine) Materialized(id FrameID) bool { return m.frame(id) != &zeroPage }

// Read copies len(dst) bytes starting at off within frame id.
func (m *Machine) Read(id FrameID, off uint64, dst []byte) {
	f := m.frame(id)
	if off+uint64(len(dst)) > PageSize {
		panic(fmt.Sprintf("vm: read crosses frame boundary: off %d len %d", off, len(dst)))
	}
	copy(dst, f[off:])
}

// Write copies src into frame id starting at off.
func (m *Machine) Write(id FrameID, off uint64, src []byte) {
	f := m.frame(id)
	if off+uint64(len(src)) > PageSize {
		panic(fmt.Sprintf("vm: write crosses frame boundary: off %d len %d", off, len(src)))
	}
	if f == &zeroPage {
		f = m.materialize(id)
	}
	copy(f[off:], src)
}

// ReadU reads an n-byte little-endian unsigned value at off. n is 1, 2, 4
// or 8 for a whole guest access; the two halves of a page-straddling
// access (ReadSplit) may have any width from 1 to 7. The access must not
// cross the frame boundary; the MMU splits straddling guest accesses
// before they reach the machine.
func (m *Machine) ReadU(id FrameID, off uint64, n uint8) uint64 {
	f := m.frame(id)
	if off+uint64(n) > PageSize {
		panic(fmt.Sprintf("vm: readU crosses frame boundary: off %d n %d", off, n))
	}
	b := f[off:]
	switch n {
	case 1, 2, 4, 8:
		return getLE(b, n)
	}
	var v uint64
	for i := uint8(0); i < n; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// WriteU writes the low n bytes of v, little-endian, at off. Widths are
// as for ReadU.
func (m *Machine) WriteU(id FrameID, off uint64, n uint8, v uint64) {
	f := m.frame(id)
	if off+uint64(n) > PageSize {
		panic(fmt.Sprintf("vm: writeU crosses frame boundary: off %d n %d", off, n))
	}
	if f == &zeroPage {
		f = m.materialize(id)
	}
	b := f[off:]
	switch n {
	case 1, 2, 4, 8:
		putLE(b, n, v)
		return
	}
	for i := uint8(0); i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ReadWhole reads a whole guest access, n = 1, 2, 4 or 8 bytes,
// little-endian at off in frame id, which must be live. It is ReadU
// without the diagnostics, small enough to inline into the hypervisor's
// TLB hit path; a caller guarantees off+n ≤ PageSize, and any other
// misuse still panics, on a nil page or a short slice.
func (m *Machine) ReadWhole(id FrameID, off uint64, n uint8) uint64 {
	return getLE(m.frames[id][off:], n)
}

// WriteWhole is the store counterpart of ReadWhole. It writes nothing and
// reports false, whatever off and n, when frame id has never been written:
// the frame still names the shared zero page, and WriteU, which gives it
// its own page, must take the store.
func (m *Machine) WriteWhole(id FrameID, off uint64, n uint8, v uint64) bool {
	f := m.frames[id]
	if f == &zeroPage {
		return false
	}
	putLE(f[off:], n, v)
	return true
}

// getLE reads an n-byte little-endian value from the start of b, for n =
// 1, 2, 4 or 8: the byte-order code of every whole access.
func getLE(b []byte, n uint8) uint64 {
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	return uint64(b[0])
}

// putLE writes the low n bytes of v, little-endian, at the start of b, for
// n = 1, 2, 4 or 8.
func putLE(b []byte, n uint8, v uint64) {
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
}

// ReadSplit reads an n-byte little-endian value that starts at off in
// frame lo and runs past the page end into the start of frame hi: the two
// halves of a page-straddling guest access. Callers translate both pages
// before calling it.
func (m *Machine) ReadSplit(lo, hi FrameID, off uint64, n uint8) uint64 {
	n1 := splitAt(off, n)
	return m.ReadU(lo, off, n1) | m.ReadU(hi, 0, n-n1)<<(8*n1)
}

// WriteSplit is the store counterpart of ReadSplit. Both frames must be
// valid: the half in lo is written before hi is checked.
func (m *Machine) WriteSplit(lo, hi FrameID, off uint64, n uint8, v uint64) {
	n1 := splitAt(off, n)
	m.WriteU(lo, off, n1, v)
	m.WriteU(hi, 0, n-n1, v>>(8*n1))
}

// splitAt returns how many of the n bytes at off fall before the page end,
// panicking unless the access really straddles it.
func splitAt(off uint64, n uint8) uint8 {
	if off >= PageSize || off+uint64(n) <= PageSize {
		panic(fmt.Sprintf("vm: split access does not straddle a page end: off %d n %d", off, n))
	}
	return uint8(PageSize - off)
}

// PageNum returns the virtual page number containing addr.
func PageNum(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ uint64(PageMask) }

// PageOff returns addr's offset within its page.
func PageOff(addr uint64) uint64 { return addr & PageMask }

// RoundUp rounds size up to a whole number of pages.
func RoundUp(size uint64) uint64 {
	return (size + PageMask) &^ uint64(PageMask)
}
