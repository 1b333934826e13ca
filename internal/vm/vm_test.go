package vm

import (
	"testing"
	"testing/quick"
)

func TestAllocReadWrite(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	if f == NoFrame {
		t.Fatal("allocated the invalid frame")
	}
	m.WriteU(f, 16, 8, 0x1122334455667788)
	if got := m.ReadU(f, 16, 8); got != 0x1122334455667788 {
		t.Errorf("ReadU = %#x", got)
	}
	// Little-endian byte order.
	b := make([]byte, 2)
	m.Read(f, 16, b)
	if b[0] != 0x88 || b[1] != 0x77 {
		t.Errorf("byte order wrong: % x", b)
	}
	// Partial-width read.
	if got := m.ReadU(f, 16, 4); got != 0x55667788 {
		t.Errorf("4-byte ReadU = %#x", got)
	}
}

// TestFramesAreZeroed: a frame no one has written reads as zero through
// Read and through ReadU at every width and offset.
func TestFramesAreZeroed(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	var buf [PageSize]byte
	for i := range buf {
		buf[i] = 0xff
	}
	m.Read(f, 0, buf[:])
	if buf != ([PageSize]byte{}) {
		t.Fatal("Read of a fresh frame is not all zero")
	}
	for n := uint8(1); n <= 8; n++ {
		for off := uint64(0); off+uint64(n) <= PageSize; off++ {
			if v := m.ReadU(f, off, n); v != 0 {
				t.Fatalf("ReadU(off %d, n %d) of a fresh frame = %#x", off, n, v)
			}
		}
	}
}

func TestFramesAreDistinct(t *testing.T) {
	m := NewMachine()
	a, b := m.AllocFrames(1), m.AllocFrames(1)
	m.WriteU(a, 0, 8, 1)
	m.WriteU(b, 0, 8, 2)
	if m.ReadU(a, 0, 8) != 1 || m.ReadU(b, 0, 8) != 2 {
		t.Error("frames alias each other")
	}
}

// TestFreeFrame frees a frame that was never written: a demand-zero
// frame frees like any other.
func TestFreeFrame(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	if m.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", m.Frames())
	}
	m.FreeFrame(f)
	if m.Frames() != 0 {
		t.Fatalf("Frames = %d after free, want 0", m.Frames())
	}
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.FreeFrame(f)
}

func TestAccessAfterFreePanics(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	m.FreeFrame(f)
	defer func() {
		if recover() == nil {
			t.Error("use after free did not panic")
		}
	}()
	m.ReadU(f, 0, 8)
}

func TestCrossBoundaryPanics(t *testing.T) {
	m := NewMachine()
	written, fresh := m.AllocFrames(1), m.AllocFrames(1)
	m.WriteU(written, 0, 1, 1)
	for _, f := range []FrameID{written, fresh} {
		if !panics(func() { m.WriteU(f, PageSize-4, 8, 1) }) {
			t.Errorf("frame %d: cross-boundary write did not panic", f)
		}
		if !panics(func() { m.ReadU(f, PageSize-3, 4) }) {
			t.Errorf("frame %d: cross-boundary read did not panic", f)
		}
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// refReadU and refWriteU are the byte-at-a-time loops ReadU and WriteU
// replaced: the reference their word-wide loads and stores must match.
func refReadU(b []byte, n uint8) uint64 {
	var v uint64
	for i := uint8(0); i < n; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func refWriteU(b []byte, n uint8, v uint64) {
	for i := uint8(0); i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// mix is a fixed 64-bit mixer (SplitMix64's) for deterministic test values
// whose bytes all vary.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestWordWideMatchesByteLoop checks ReadU and WriteU against the byte
// loops exhaustively: every width 1..8 (the odd ones come from the halves
// of page-straddling accesses) at every offset that fits in the page.
func TestWordWideMatchesByteLoop(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	var ref [PageSize]byte
	for i := range ref {
		ref[i] = byte(mix(uint64(i)))
	}
	m.Write(f, 0, ref[:])
	var got [PageSize]byte
	for n := uint8(1); n <= 8; n++ {
		for off := uint64(0); off+uint64(n) <= PageSize; off++ {
			if v, want := m.ReadU(f, off, n), refReadU(ref[off:], n); v != want {
				t.Fatalf("ReadU(off %d, n %d) = %#x, want %#x", off, n, v, want)
			}
			v := mix(off<<4 | uint64(n))
			m.WriteU(f, off, n, v)
			refWriteU(ref[off:], n, v)
			m.Read(f, 0, got[:])
			if got != ref {
				t.Fatalf("WriteU(off %d, n %d, %#x) left the page differing from the byte loop's", off, n, v)
			}
		}
	}
}

// TestSplitAccess checks ReadSplit and WriteSplit against the byte loops
// over two adjacent pages, at every width and every straddling offset, and
// that an access that does not straddle is refused.
func TestSplitAccess(t *testing.T) {
	m := NewMachine()
	lo, hi := m.AllocFrames(1), m.AllocFrames(1)
	var ref [2 * PageSize]byte
	for n := uint8(2); n <= 8; n++ {
		for off := PageSize - uint64(n) + 1; off < PageSize; off++ {
			v := mix(off<<4 | uint64(n))
			m.WriteSplit(lo, hi, off, n, v)
			refWriteU(ref[off:], n, v)
			if got, want := m.ReadSplit(lo, hi, off, n), refReadU(ref[off:], n); got != want {
				t.Fatalf("ReadSplit(off %d, n %d) = %#x, want %#x", off, n, got, want)
			}
		}
	}
	var got [2 * PageSize]byte
	m.Read(lo, 0, got[:PageSize])
	m.Read(hi, 0, got[PageSize:])
	if got != ref {
		t.Fatal("WriteSplit left the pages differing from the byte loop's")
	}
	for _, off := range []uint64{0, PageSize - 8, PageSize} {
		if !panics(func() { m.ReadSplit(lo, hi, off, 8) }) {
			t.Errorf("ReadSplit at off %d did not panic", off)
		}
	}
}

// TestWriteLeavesOtherFramesZero: writing one never-written frame gives it
// its own page. Another never-written frame, allocated before or after,
// still reads zero, which a write into the shared zero page would break.
// So does a write that panics on the page boundary.
func TestWriteLeavesOtherFramesZero(t *testing.T) {
	m := NewMachine()
	before, a := m.AllocFrames(1), m.AllocFrames(1)
	if !panics(func() { m.WriteU(a, PageSize-2, 4, ^uint64(0)) }) {
		t.Fatal("cross-boundary write did not panic")
	}
	if !panics(func() { m.Write(a, PageSize-1, []byte{1, 2}) }) {
		t.Fatal("cross-boundary Write did not panic")
	}
	if m.frames[a] != &zeroPage {
		t.Fatal("a write that panicked gave the frame its own page")
	}
	m.WriteU(a, 8, 8, ^uint64(0))
	m.Write(a, PageSize-1, []byte{0xee})
	after := m.AllocFrames(1)
	for _, f := range []FrameID{before, after} {
		for off := uint64(0); off < PageSize; off += 8 {
			if v := m.ReadU(f, off, 8); v != 0 {
				t.Fatalf("never-written frame %d reads %#x at %d", f, v, off)
			}
		}
	}
	if m.ReadU(a, 8, 8) != ^uint64(0) || m.ReadU(a, PageSize-1, 1) != 0xee || m.ReadU(a, 0, 8) != 0 {
		t.Error("written frame lost its contents")
	}
}

func TestPageArithmetic(t *testing.T) {
	if PageNum(0) != 0 || PageNum(PageSize-1) != 0 || PageNum(PageSize) != 1 {
		t.Error("PageNum wrong at boundaries")
	}
	if PageBase(PageSize+5) != PageSize {
		t.Error("PageBase wrong")
	}
	if PageOff(PageSize+5) != 5 {
		t.Error("PageOff wrong")
	}
	if RoundUp(0) != 0 || RoundUp(1) != PageSize || RoundUp(PageSize) != PageSize {
		t.Error("RoundUp wrong")
	}
}

func TestReadWriteURoundTrip(t *testing.T) {
	m := NewMachine()
	f := m.AllocFrames(1)
	prop := func(off uint16, v uint64, szSel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		n := sizes[szSel%4]
		o := uint64(off) % (PageSize - 8)
		m.WriteU(f, o, n, v)
		got := m.ReadU(f, o, n)
		want := v
		if n < 8 {
			want = v & ((1 << (8 * n)) - 1)
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPageArithmeticProperties(t *testing.T) {
	prop := func(addr uint64) bool {
		return PageBase(addr)+PageOff(addr) == addr &&
			PageNum(addr)*PageSize == PageBase(addr)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
