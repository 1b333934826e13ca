package vm

// tlbSize is the number of entries in a TLB. A power of two, so a vpn's
// slot is its low bits.
const tlbSize = 32

// tlbEntry is one TLB entry: the translation of the page whose vpn is
// key>>1 - 1, readable and also writable when key's low bit is set. The
// zero entry is empty: no vpn has key>>1 == 0.
type tlbEntry struct {
	key   uint64
	frame FrameID
}

// TLB is a host translation cache: 32 direct-mapped entries, slot vpn mod
// 32, each naming the frame of one readable page and whether the page is
// also writable. Its owner fills an entry only for a translation that
// allows a read and drops or clears entries whenever a translation it
// cached may have changed; the TLB itself never walks. Entries hold
// FrameIDs, not pages: a never-written frame names the shared zero page
// until a write, through any alias, gives it its own, so a hit reads
// Machine.frames at access time (ReadWhole, WriteWhole). The zero TLB is
// empty, and a TLB holds no pointer, so the garbage collector never scans
// it.
type TLB struct {
	e [tlbSize]tlbEntry
}

// Fill caches frame as vpn's translation, writable or read-only, in place
// of whatever vpn's slot held.
func (t *TLB) Fill(vpn uint64, frame FrameID, writable bool) {
	key := (vpn + 1) << 1
	if writable {
		key |= 1
	}
	t.e[vpn%tlbSize] = tlbEntry{key: key, frame: frame}
}

// Drop removes vpn's entry, if the TLB holds one.
func (t *TLB) Drop(vpn uint64) {
	if e := &t.e[vpn%tlbSize]; e.key>>1 == vpn+1 {
		*e = tlbEntry{}
	}
}

// Clear removes every entry.
func (t *TLB) Clear() { *t = TLB{} }

// Lookup returns the cached frame of the page of a size-byte access at
// addr and whether the page is writable. ok is false when the TLB holds no
// entry for the page or the access runs past the page end.
func (t *TLB) Lookup(addr uint64, size uint8) (frame FrameID, writable, ok bool) {
	vpn := PageNum(addr)
	if e := &t.e[vpn%tlbSize]; e.key>>1 == vpn+1 && PageOff(addr)+uint64(size) <= PageSize {
		return e.frame, e.key&1 != 0, true
	}
	return NoFrame, false, false
}
