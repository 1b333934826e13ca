// Package vm models the physical machine under the AikidoVM hypervisor: a
// flat array of page frames with raw, untranslated access.
//
// Everything above this package deals in *guest* addresses; only the
// hypervisor's translation path (internal/hypervisor) and loaders hold
// machine frame handles. Two guest-virtual pages aliasing one frame — the
// mechanism behind Aikido's mirror pages — is expressed simply by two page
// table entries naming the same FrameID.
package vm

import "fmt"

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

// Frame is the backing store of one physical page.
type Frame [PageSize]byte

// Machine is the physical memory of the simulated host.
// It is not safe for concurrent use; the simulator is single-goroutine by
// design (determinism is a core requirement, see "Determinism lint" in
// ARCHITECTURE.md).
type Machine struct {
	// frames is indexed directly by FrameID: IDs are allocated
	// sequentially and never reused, so the per-access frame resolution is
	// one bounds-checked load instead of a map probe. Slot 0 (NoFrame) is
	// permanently nil; freed frames leave nil holes.
	frames []*Frame
	live   int

	// AllocCount counts frame allocations, for memory-footprint stats.
	AllocCount uint64
}

// NewMachine returns an empty physical memory.
func NewMachine() *Machine {
	return &Machine{frames: make([]*Frame, 1, 64)}
}

// AllocFrame allocates a zeroed physical frame.
func (m *Machine) AllocFrame() FrameID {
	id := FrameID(len(m.frames))
	m.frames = append(m.frames, new(Frame))
	m.live++
	m.AllocCount++
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

// frame returns the backing array, panicking on invalid frames: callers are
// the hypervisor/loader, which must never hold stale frame handles.
func (m *Machine) frame(id FrameID) *Frame {
	if uint64(id) < uint64(len(m.frames)) {
		if f := m.frames[id]; f != nil {
			return f
		}
	}
	panic(fmt.Sprintf("vm: access to invalid frame %d", id))
}

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
	copy(f[off:], src)
}

// ReadU reads an n-byte little-endian unsigned value (n ∈ {1,2,4,8}) at off.
// The access must not cross the frame boundary; the MMU splits unaligned
// guest accesses before they reach the machine.
func (m *Machine) ReadU(id FrameID, off uint64, n uint8) uint64 {
	f := m.frame(id)
	if off+uint64(n) > PageSize {
		panic(fmt.Sprintf("vm: readU crosses frame boundary: off %d n %d", off, n))
	}
	var v uint64
	for i := uint8(0); i < n; i++ {
		v |= uint64(f[off+uint64(i)]) << (8 * i)
	}
	return v
}

// WriteU writes an n-byte little-endian unsigned value at off.
func (m *Machine) WriteU(id FrameID, off uint64, n uint8, v uint64) {
	f := m.frame(id)
	if off+uint64(n) > PageSize {
		panic(fmt.Sprintf("vm: writeU crosses frame boundary: off %d n %d", off, n))
	}
	for i := uint8(0); i < n; i++ {
		f[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// PageNum returns the virtual page number containing addr.
func PageNum(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ uint64(PageMask) }

// PageOff returns addr's offset within its page.
func PageOff(addr uint64) uint64 { return addr & PageMask }

// PagesSpanned returns how many pages the byte range [addr, addr+size)
// touches. size 0 spans 0 pages.
func PagesSpanned(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	return PageNum(addr+size-1) - PageNum(addr) + 1
}

// RoundUp rounds size up to a whole number of pages.
func RoundUp(size uint64) uint64 {
	return (size + PageMask) &^ uint64(PageMask)
}
