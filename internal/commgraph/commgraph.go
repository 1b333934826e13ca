// Package commgraph is a thread-communication-graph profiler hosted on the
// Aikido sharing seam — a further shared-data analysis (after FastTrack,
// LockSet and AVIO) demonstrating the framework claim of §1.1: Aikido
// accelerates any analysis that only needs to see accesses to shared
// data.
//
// The profiler records, per 8-byte variable and per page, which threads
// wrote data that which other threads later read — the producer→consumer
// edges that define an application's sharing structure. Developers use
// such graphs to find unintended sharing, false-sharing candidates and
// pipeline structure ("helps developers write, understand, debug and
// optimize parallel programs", §8). Because the analysis is only
// meaningful on shared data, it is a perfect AikidoSD client: private
// accesses carry no communication by definition, so Aikido's filtering
// loses nothing at all.
package commgraph

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Edge is one observed writer→reader communication pair.
type Edge struct {
	From, To guest.TID
}

// String renders the edge.
func (e Edge) String() string { return fmt.Sprintf("%d→%d", e.From, e.To) }

// Counters summarizes profiler work.
type Counters struct {
	Reads, Writes uint64
	// Communications counts read-after-remote-write events (edge
	// weight total).
	Communications uint64
	// Variables counts distinct 8-byte variables observed shared.
	Variables uint64
}

// lastWrite is one variable's cell: the thread that last wrote it, if any
// thread has.
type lastWrite struct {
	tid     guest.TID
	written bool
}

// Analysis is one communication-graph profiler. It implements the same
// seam as the other detectors (core.analysis), so it runs under both the
// full-instrumentation and Aikido configurations. Synchronization events
// carry no communication edges of their own (the data flow is what the
// profiler reports), so every synchronization hook is NoSync's no-op.
type Analysis struct {
	analysis.NoSync

	// lastWriter holds, per 8-byte variable, the last thread that wrote
	// it.
	lastWriter analysis.Store[lastWrite]
	// edges accumulates communication weights.
	edges map[Edge]uint64
	// pageEdges aggregates at page granularity.
	pageEdges map[uint64]map[Edge]uint64

	clock *stats.Clock

	C Counters
}

// New creates a profiler.
func New(clock *stats.Clock) *Analysis {
	return &Analysis{
		edges:     make(map[Edge]uint64),
		pageEdges: make(map[uint64]map[Edge]uint64),
		clock:     clock,
	}
}

// observe processes one access.
func (a *Analysis) observe(tid guest.TID, addr uint64, write bool) {
	a.clock.Charge(stats.AnalysisFast)
	lw := a.lastWriter.Cell(addr)
	if write {
		a.C.Writes++
		if !lw.written {
			// A variable counts on its first write; reads of a
			// never-written variable leave the cell untouched.
			a.C.Variables++
			lw.written = true
		}
		lw.tid = tid
		return
	}
	a.C.Reads++
	if !lw.written || lw.tid == tid {
		return
	}
	a.C.Communications++
	e := Edge{From: lw.tid, To: tid}
	a.edges[e]++
	vpn := vm.PageNum(addr)
	pe := a.pageEdges[vpn]
	if pe == nil {
		pe = make(map[Edge]uint64)
		a.pageEdges[vpn] = pe
	}
	pe[e]++
}

// OnSharedAccess implements sharing.Analysis (the Aikido configuration).
func (a *Analysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.observe(tid, addr, write)
}

// OnAccess implements the full-instrumentation seam.
func (a *Analysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.observe(tid, addr, write)
}

// WeightedEdge is one graph edge with its observed weight.
type WeightedEdge struct {
	Edge   Edge
	Weight uint64
}

// Edges returns the communication graph, heaviest edges first (ties by
// thread ids, deterministic).
func (a *Analysis) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, len(a.edges))
	for e, w := range a.edges {
		out = append(out, WeightedEdge{Edge: e, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

// HotPages returns the pages carrying the most communication, heaviest
// first, up to n entries.
type HotPage struct {
	VPN    uint64
	Weight uint64
}

// HotPages implements the false-sharing-candidate report.
func (a *Analysis) HotPages(n int) []HotPage {
	out := make([]HotPage, 0, len(a.pageEdges))
	for vpn, pe := range a.pageEdges {
		var w uint64
		for _, c := range pe {
			w += c
		}
		out = append(out, HotPage{VPN: vpn, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].VPN < out[j].VPN
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
