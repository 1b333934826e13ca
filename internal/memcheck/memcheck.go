// Package memcheck is a Dr. Memory-style memory checker (paper §2.2 and
// ref [8]) built as an Umbra shadow-value tool: per-byte addressability and
// definedness metadata over the application's address space.
//
// The paper introduces Umbra as a framework for "finding memory usage
// errors, tracking tainted data, detecting race conditions, and many
// others"; FastTrack is the race-detection instance. This package is the
// memory-usage-error instance, demonstrating that the repository's Umbra
// reimplementation hosts the whole tool family, not just Aikido:
//
//   - accesses to unaddressable bytes (no mapping, or unmapped since) are
//     reported as invalid accesses;
//   - loads of addressable-but-never-written heap/mmap bytes are reported
//     as uninitialized reads (static data and stacks load as defined, as
//     the loader zero-fills them);
//   - stores mark bytes defined; munmap marks them unaddressable again,
//     catching use-after-unmap.
//
// The checker is a registry analysis ("memcheck") and runs only inside a
// core.System. Unlike a shared-data analysis, a memory checker must see
// *every* access, so its native configuration is full instrumentation
// (core.ModeFastTrackFull, the conservative configuration whose cost
// Figure 5's FastTrack bars represent). An invalid access kills the
// guest, as it would natively: System.Run returns the fault, and the
// checker, reached through System.Analysis("memcheck"), still holds the
// reports up to the crash — Dr. Memory reports the invalid access *and*
// the crash.
package memcheck

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/umbra"
)

// byteState is the per-byte shadow metadata.
type byteState uint8

const (
	// unaddressable: no live mapping for the byte.
	unaddressable byteState = iota
	// undefined: mapped but never written (heap/mmap).
	undefined
	// defined: mapped and written (or loader-initialized).
	defined
)

// ErrorKind classifies a report.
type ErrorKind uint8

// Report kinds.
const (
	// InvalidAccess: load or store to an unaddressable byte.
	InvalidAccess ErrorKind = iota
	// UninitializedRead: load of a mapped but never-written byte.
	UninitializedRead
)

// String names the kind.
func (k ErrorKind) String() string {
	switch k {
	case InvalidAccess:
		return "invalid access"
	case UninitializedRead:
		return "uninitialized read"
	}
	return "error?"
}

// Report is one detected memory-usage error.
type Report struct {
	Kind  ErrorKind
	TID   guest.TID
	PC    isa.PC
	Addr  uint64
	Size  uint8
	Write bool
}

// String renders the report.
func (r Report) String() string {
	op := "read"
	if r.Write {
		op = "write"
	}
	return fmt.Sprintf("%v: %s of %d bytes at %#x (thread %d, pc %d)",
		r.Kind, op, r.Size, r.Addr, r.TID, r.PC)
}

// Counters summarizes checker work.
type Counters struct {
	Loads, Stores  uint64
	Invalid        uint64
	Uninit         uint64
	BytesDefined   uint64
	RegionsTracked uint64
}

// defaultMaxReports is the default findings cap.
const defaultMaxReports = 64

// Checker is one memory checker instance.
type Checker struct {
	analysis.NoSync
	shadow *umbra.ShadowMap[byteState]

	reports []Report
	// MaxReports caps stored reports; further errors are counted only.
	MaxReports int
	// dedup suppresses repeated reports from the same (pc, kind).
	dedup map[uint64]struct{}

	clock *stats.Clock

	// loading is true only while Attach replays the pre-existing address
	// space: those regions are loader-initialized, hence defined.
	loading bool

	C Counters
}

// Attach builds a checker over the process, tracking every application
// region through Umbra. Regions that exist at attach time (code, data,
// initial stacks) are treated as loader-initialized: defined.
func Attach(p *guest.Process, um *umbra.Umbra, clock *stats.Clock) *Checker {
	c := &Checker{
		shadow:     umbra.NewShadowMap[byteState](um, 1),
		MaxReports: defaultMaxReports,
		dedup:      make(map[uint64]struct{}),
		clock:      clock,
	}
	// Regions that exist at attach time are loader-initialized: defined.
	// AddVMAListener replays them through VMAAdded, so the hook marks
	// everything it sees during the replay as defined and only later
	// regions as undefined (fresh anonymous memory is zeroed by the
	// kernel but *semantically* uninitialized to the program — the
	// Dr. Memory definition).
	c.loading = true
	p.AddVMAListener(vmaHook{c})
	c.loading = false
	return c
}

// fill sets the state of every byte of a VMA.
func (c *Checker) fill(v *guest.VMA, st byteState) {
	c.C.RegionsTracked++
	for a := v.Base; a < v.End(); a++ {
		if cell := c.shadow.Get(guest.NoTID, a); cell != nil {
			*cell = st
		}
	}
}

// vmaHook tracks address-space changes.
type vmaHook struct{ c *Checker }

// VMAAdded implements guest.VMAListener: new app mappings are addressable
// but undefined; stacks are defined (the ABI zero-fills them), as is
// everything replayed during attach (the loader wrote it).
func (h vmaHook) VMAAdded(v *guest.VMA) {
	switch v.Kind {
	case guest.VMAShadow, guest.VMAMirror:
		return
	case guest.VMAStack:
		h.c.fill(v, defined)
	default:
		if h.c.loading {
			h.c.fill(v, defined)
		} else {
			h.c.fill(v, undefined)
		}
	}
}

// VMARemoved implements guest.VMAListener: unmapped bytes become
// unaddressable. (Umbra drops the region's shadow with it; a re-map
// allocates fresh cells, so nothing to do beyond accounting.)
func (h vmaHook) VMARemoved(v *guest.VMA) {}

// check inspects/updates the shadow bytes of one access.
func (c *Checker) check(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.clock.Charge(stats.ShadowTranslate + uint64(size))
	if write {
		c.C.Stores++
	} else {
		c.C.Loads++
	}
	for i := uint64(0); i < uint64(size); i++ {
		cell := c.shadow.Get(tid, addr+i)
		if cell == nil {
			c.C.Invalid++
			c.report(Report{Kind: InvalidAccess, TID: tid, PC: pc, Addr: addr, Size: size, Write: write})
			return
		}
		if write {
			if *cell != defined {
				c.C.BytesDefined++
			}
			*cell = defined
			continue
		}
		if *cell == undefined {
			c.C.Uninit++
			c.report(Report{Kind: UninitializedRead, TID: tid, PC: pc, Addr: addr, Size: size})
			return
		}
	}
}

// report stores one deduplicated report.
func (c *Checker) report(r Report) {
	key := uint64(r.PC)<<8 | uint64(r.Kind)
	if _, seen := c.dedup[key]; seen {
		return
	}
	c.dedup[key] = struct{}{}
	if len(c.reports) < c.MaxReports {
		c.reports = append(c.reports, r)
	}
}

// Reports returns the stored reports ordered by PC.
func (c *Checker) Reports() []Report {
	out := make([]Report, len(c.reports))
	copy(out, c.reports)
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}
