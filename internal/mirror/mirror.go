// Package mirror maintains Aikido's mirror pages (paper §3.3.3): every
// application memory segment is aliased at a second virtual range backed by
// the same physical frames, so instrumented instructions can access the
// data while the primary pages stay protected.
//
// In the real system this is achieved by backing each segment with a file
// and mmapping it twice; the simulator's guest.Backing objects play the
// file's role and guest.Process.MapAlias plays the second mmap. The manager
// listens for address-space changes, which models AikidoSD's interception
// of mmap and brk system calls: every new application segment is mirrored
// the moment it appears.
package mirror

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// Base is where mirror regions are placed in the guest address space —
// far from every application region (see the isa layout constants).
const Base uint64 = 0x0000_6000_0000_0000

// entry records one mirrored application region.
type entry struct {
	base, end uint64 // application range
	delta     uint64 // mirrorAddr = appAddr + delta
	mirror    *guest.VMA
}

// Manager creates and tracks mirror mappings for one process.
type Manager struct {
	p    *guest.Process
	next uint64

	entries  []entry
	byOrig   map[*guest.VMA]int // index into entries
	lastHit  int                // memoization for Translate
	Mirrored uint64             // regions mirrored (stats)
}

// Attach creates a Manager and registers it for address-space events;
// existing segments are mirrored immediately (AikidoSD "starts by mirroring
// all allocated pages within the target application's address space").
func Attach(p *guest.Process) *Manager {
	m := &Manager{p: p, next: Base, byOrig: make(map[*guest.VMA]int), lastHit: -1}
	p.AddVMAListener(m)
	return m
}

// VMAAdded implements guest.VMAListener: application segments get a mirror;
// runtime segments (shadow memory, mirrors themselves) do not.
func (m *Manager) VMAAdded(v *guest.VMA) {
	switch v.Kind {
	case guest.VMAShadow, guest.VMAMirror:
		return
	}
	base := m.next
	// Guard gap after each mirror so mirrors of adjacent segments never
	// abut (keeps faults attributable).
	m.next += uint64(v.Pages+1) * vm.PageSize
	mv := m.p.MapAlias(v, base, pagetable.ProtRW, guest.VMAMirror,
		"mirror("+v.Name+")")
	m.byOrig[v] = len(m.entries)
	m.entries = append(m.entries, entry{base: v.Base, end: v.End(), delta: base - v.Base, mirror: mv})
	m.Mirrored++
}

// VMARemoved implements guest.VMAListener: when an application segment is
// unmapped its mirror goes too (the backing survives until both are gone).
func (m *Manager) VMARemoved(v *guest.VMA) {
	i, ok := m.byOrig[v]
	if !ok {
		return
	}
	delete(m.byOrig, v)
	mv := m.entries[i].mirror
	m.entries[i] = entry{} // tombstone; keep indices stable
	m.lastHit = -1
	// Unmap the mirror via the regular path (fires VMARemoved(mirror),
	// which the switch above ignores).
	if err := m.p.Munmap(mv.Base); err != nil {
		panic(fmt.Sprintf("mirror: unmapping mirror %#x: %v", mv.Base, err))
	}
}

// Translate maps an application address to its mirror address. ok is false
// for addresses in no mirrored segment (runtime memory).
func (m *Manager) Translate(addr uint64) (uint64, bool) {
	if m.lastHit >= 0 {
		if e := &m.entries[m.lastHit]; e.end != 0 && addr >= e.base && addr < e.end {
			return addr + e.delta, true
		}
	}
	for i := range m.entries {
		e := &m.entries[i]
		if e.end != 0 && addr >= e.base && addr < e.end {
			m.lastHit = i
			return addr + e.delta, true
		}
	}
	return 0, false
}
