// Package umbra reimplements the Umbra shadow-memory framework (paper §2.2)
// on the simulated guest address space.
//
// Umbra exploits the observation that a 64-bit address space is sparse: the
// application populates a handful of dense regions (code, data, heap,
// stacks, mmaps). Each region gets a shadow region and translation is a
// region lookup plus an offset — no multi-level tables. Most lookups hit an
// inlined per-thread memoization cache (the last region the thread
// touched); misses fall back to a global region scan, mirroring Umbra's
// layered caches.
//
// Aikido extends Umbra to map each application address to *two* shadows
// (§3.3.1): analysis metadata (ShadowMap) and the mirror page (the
// region's Mirror offset). Umbra maps no mirror itself: AikidoSD maps each
// segment's alias and records its offset on the segment's region, so one
// translation (ShadowMap.Lookup) answers both.
package umbra

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/guest"
	"repro/internal/stats"
)

// RegionID identifies one registered application region.
type RegionID int32

// Region is one densely-populated application region tracked by Umbra.
type Region struct {
	ID   RegionID
	Base uint64
	End  uint64
	Kind guest.VMAKind
	// Mirror is the offset of the region's mirror alias: a + Mirror is
	// the same byte as a, mapped read-write. AikidoSD sets it when it
	// maps the alias; it stays 0 when no alias is mapped.
	Mirror uint64
}

// Contains reports whether addr falls in the region.
func (r *Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End }

// String describes the region.
func (r *Region) String() string {
	return fmt.Sprintf("region %d [%#x,%#x) %s", r.ID, r.Base, r.End, r.Kind)
}

// Stats counts translation cache behaviour (the dominant cost of shadow
// value tools, §2.2).
type Stats struct {
	// InlineHits counts translations served by the per-thread inlined
	// memoization cache.
	InlineHits uint64
	// GlobalLookups counts fallbacks to the region table scan.
	GlobalLookups uint64
	// Misses counts addresses in no registered region.
	Misses uint64
}

// lastHitSlots sizes the fixed per-thread memoization array. Guest TIDs are
// small sequential integers; anything past the array (never seen in
// practice) spills to a lazily allocated map with identical semantics.
const lastHitSlots = 64

// Umbra is the shadow-memory manager for one process.
type Umbra struct {
	regions []*Region // sorted by Base
	byVMA   map[*guest.VMA]*Region
	nextID  RegionID

	// lastHit is the per-thread inlined memoization cache: a fixed array
	// indexed by TID — one bounds-checked load on the translation fast
	// path, no map hash. lastHitHi spills TIDs ≥ lastHitSlots.
	lastHit   [lastHitSlots]*Region
	lastHitHi map[guest.TID]*Region

	clock *stats.Clock

	// removedListeners are notified when a region disappears so shadow
	// maps can drop their cells.
	removedListeners []func(*Region)

	Stats Stats
}

// Attach creates an Umbra instance and registers it for the process's
// address-space events (existing VMAs are replayed).
func Attach(p *guest.Process, clock *stats.Clock) *Umbra {
	u := &Umbra{
		byVMA: make(map[*guest.VMA]*Region),
		clock: clock,
	}
	p.AddVMAListener(u)
	return u
}

// VMAAdded implements guest.VMAListener. Shadow and mirror regions are the
// analysis runtime's own memory and get no shadow of their own.
func (u *Umbra) VMAAdded(v *guest.VMA) {
	if v.Kind == guest.VMAShadow || v.Kind == guest.VMAMirror {
		return
	}
	u.nextID++
	r := &Region{ID: u.nextID, Base: v.Base, End: v.End(), Kind: v.Kind}
	u.byVMA[v] = r
	i := sort.Search(len(u.regions), func(i int) bool { return u.regions[i].Base >= r.Base })
	u.regions = append(u.regions, nil)
	copy(u.regions[i+1:], u.regions[i:])
	u.regions[i] = r
}

// VMARemoved implements guest.VMAListener.
func (u *Umbra) VMARemoved(v *guest.VMA) {
	r, ok := u.byVMA[v]
	if !ok {
		return
	}
	delete(u.byVMA, v)
	for i, x := range u.regions {
		if x == r {
			u.regions = append(u.regions[:i], u.regions[i+1:]...)
			break
		}
	}
	for i, hit := range u.lastHit {
		if hit == r {
			u.lastHit[i] = nil
		}
	}
	for tid, hit := range u.lastHitHi {
		if hit == r {
			delete(u.lastHitHi, tid)
		}
	}
	for _, f := range u.removedListeners {
		f(r)
	}
}

// Region returns the region registered for v, or nil for a VMA Umbra does
// not track (shadow and mirror memory).
func (u *Umbra) Region(v *guest.VMA) *Region { return u.byVMA[v] }

// OnRegionRemoved registers a callback fired when a region is dropped.
func (u *Umbra) OnRegionRemoved(f func(*Region)) {
	u.removedListeners = append(u.removedListeners, f)
}

// Regions returns the number of registered regions.
func (u *Umbra) Regions() int { return len(u.regions) }

// Translate resolves addr to its region and in-region offset, charging the
// translation cost (inline-cache hit or global lookup). ok is false when
// the address is in no registered region.
func (u *Umbra) Translate(tid guest.TID, addr uint64) (*Region, uint64, bool) {
	var r *Region
	if uint32(tid) < lastHitSlots {
		r = u.lastHit[tid]
	} else {
		r = u.lastHitHi[tid]
	}
	if r != nil && r.Contains(addr) {
		u.Stats.InlineHits++
		u.clock.Charge(stats.ShadowTranslate)
		return r, addr - r.Base, true
	}
	u.Stats.GlobalLookups++
	u.clock.Charge(stats.ShadowTranslateMiss)
	if r := u.regionAt(addr); r != nil {
		if uint32(tid) < lastHitSlots {
			u.lastHit[tid] = r
		} else {
			if u.lastHitHi == nil {
				u.lastHitHi = make(map[guest.TID]*Region)
			}
			u.lastHitHi[tid] = r
		}
		return r, addr - r.Base, true
	}
	u.Stats.Misses++
	return nil, 0, false
}

// regionAt is the global region scan: the region containing addr, or nil.
// It charges, counts and memoizes nothing.
func (u *Umbra) regionAt(addr uint64) *Region {
	i := sort.Search(len(u.regions), func(i int) bool { return u.regions[i].End > addr })
	if i < len(u.regions) && u.regions[i].Contains(addr) {
		return u.regions[i]
	}
	return nil
}

// ShadowMap stores one metadata cell of type T per granule bytes of
// application memory, allocated lazily per region. It is Umbra's
// "configurable bytes of application data → configurable bytes of shadow
// metadata" mapping.
type ShadowMap[T any] struct {
	u *Umbra
	// shift is log2 of the granule: a cell index is an in-region offset
	// shifted right, not divided, on every lookup.
	shift uint
	// cells is indexed directly by RegionID (IDs are small sequential
	// integers): the per-access cell lookup is one bounds-checked load
	// instead of a map probe. A nil inner slice means not yet allocated.
	cells [][]T

	// Allocations counts lazy region-shadow allocations.
	Allocations uint64
}

// NewShadowMap creates a shadow mapping with the given application-byte
// granule (e.g. 1 for byte-granular taint, vm.PageSize for page states),
// which must be a power of two. Its region shadows are dropped
// automatically when regions are removed.
func NewShadowMap[T any](u *Umbra, granule uint64) *ShadowMap[T] {
	if granule == 0 || granule&(granule-1) != 0 {
		panic(fmt.Sprintf("umbra: granule %d is not a power of two", granule))
	}
	s := &ShadowMap[T]{u: u, shift: uint(bits.TrailingZeros64(granule))}
	u.OnRegionRemoved(func(r *Region) {
		if int(r.ID) < len(s.cells) {
			s.cells[r.ID] = nil
		}
	})
	return s
}

// Get returns the metadata cell for addr, translating through Umbra's
// caches and allocating the region's shadow on first touch. It returns nil
// when addr is outside every region.
func (s *ShadowMap[T]) Get(tid guest.TID, addr uint64) *T {
	c, _ := s.Lookup(tid, addr)
	return c
}

// Lookup is Get that also returns addr's region, so a caller reads the
// region's other shadow (its Mirror offset) from the same translation.
// Both are nil when addr is outside every region.
func (s *ShadowMap[T]) Lookup(tid guest.TID, addr uint64) (*T, *Region) {
	r, off, ok := s.u.Translate(tid, addr)
	if !ok {
		return nil, nil
	}
	id := int(r.ID)
	if id >= len(s.cells) {
		// Amortized growth: every thread stack is a new region, and a
		// copy per region would make thread start O(regions).
		s.cells = append(s.cells, make([][]T, id+1-len(s.cells))...)
	}
	c := s.cells[id]
	if c == nil {
		n := (r.End - r.Base + 1<<s.shift - 1) >> s.shift
		c = make([]T, n)
		s.cells[id] = c
		s.Allocations++
	}
	return &c[off>>s.shift], r
}

// Peek returns the metadata cell for addr without translating it: no
// charge, no counter, no memo and no allocation, so an inspector reads a
// run without changing it. It returns nil when addr is outside every
// region or its region's shadow was never allocated.
func (s *ShadowMap[T]) Peek(addr uint64) *T {
	r := s.u.regionAt(addr)
	if r == nil || int(r.ID) >= len(s.cells) || s.cells[r.ID] == nil {
		return nil
	}
	return &s.cells[r.ID][(addr-r.Base)>>s.shift]
}
