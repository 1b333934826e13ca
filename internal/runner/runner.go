// Package runner is the concurrent experiment engine: it shards a matrix
// of (workload, configuration) cells — the model×mode sweeps behind
// Figure 5, Figure 6, Tables 1–2 and the extensions — across a pool of
// worker goroutines while keeping the output bit-for-bit identical to a
// sequential run.
//
// The determinism contract has two legs:
//
//   - Isolation: every cell compiles its own guest program and assembles
//     its own core.System, so no shadow state, clock, or detector is
//     shared between concurrently executing cells. workload.Build is a
//     pure function of the workload spec (deterministic per-configuration
//     seeding), so a cell's result depends only on the cell, never on
//     which worker ran it or when.
//   - Deterministic reconciliation: each worker writes each cell's result
//     into that cell's own slot of the dense result slice (dispatch is one
//     atomic fetch-add per cell), and derived metrics (slowdowns,
//     geomeans) are computed by the caller in canonical spec order from
//     that slice — so the report is byte-identical for any worker count
//     and any GOMAXPROCS.
//
// Workers pull cells from an atomic work queue rather than by fixed
// stride: experiment matrices repeat a [native, FastTrack, Aikido] mode
// pattern, and a stride that shares a factor with the pattern period
// would hand one worker every expensive cell. Which worker runs a cell
// can never affect the output — results land at the cell's index — so
// dynamic assignment costs no determinism.
//
// The same isolation property underwrites fault containment: every cell
// runs under a recover() boundary (runCell), so a panicking analysis
// poisons only its own cell's private System. Failures surface as typed
// *CellError values — in Report.Failed under Options.KeepGoing, or as the
// returned error (with the partial Report preserved) on the fail-fast
// path. See docs/benchmarking.md for the error taxonomy; the package's
// tests plant a mid-run analysis panic to check the contract.
package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/workload"
)

// Spec is one cell of an experiment matrix: a guest workload plus the
// system configuration to run it under.
type Spec struct {
	// Label names the cell in reports and errors ("vips/Aikido-FastTrack").
	Label string
	// Source is the guest program: a workload.Spec, or any other
	// workload.Source (the phased/migratory/false-sharing generators).
	// Each cell compiles it privately, so cells never share compiled
	// state; compilation must be a pure function of the source for the
	// determinism contract to hold.
	Source workload.Source
	// Config is the core.System configuration for this cell, budgets
	// (MaxCycles, MaxWall) included.
	Config core.Config
}

// Measurement is one completed cell.
type Measurement struct {
	Spec Spec
	// Res carries every layer's simulated statistics for the run.
	Res *core.Result
}

// Options configures a sweep.
type Options struct {
	// Workers is the pool size. <= 0 means runtime.NumCPU(). The pool is
	// clamped to the number of cells.
	Workers int
	// KeepGoing records failing cells in Report.Failed and runs every
	// remaining cell instead of aborting the sweep on the first error.
	// The resulting Report is fully deterministic: failed cells appear
	// in canonical spec order, completed cells land in their slots, and
	// the bytes are identical at any worker count — which cell fails is
	// a property of the cell, never of scheduling.
	KeepGoing bool
}

// FailKind classifies why a cell failed.
type FailKind uint8

// Cell failure kinds.
const (
	// FailCompile: the workload source failed to compile.
	FailCompile FailKind = iota
	// FailRun: core.Run returned an ordinary error (a bad configuration,
	// a guest fault, a deadlock).
	FailRun
	// FailPanic: the cell panicked and the worker's containment
	// recovered it (a detector or simulator bug).
	FailPanic
	// FailBudget: the cell exceeded Config.MaxCycles or Config.MaxWall
	// (the error unwraps to *core.BudgetError).
	FailBudget
)

// String names the kind for reports.
func (k FailKind) String() string {
	switch k {
	case FailCompile:
		return "compile"
	case FailRun:
		return "run"
	case FailPanic:
		return "panic"
	case FailBudget:
		return "budget"
	}
	return "kind?"
}

// MarshalJSON renders the kind as its name.
func (k FailKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// CellError is the typed per-cell failure: which cell, how it failed,
// and the underlying error. It wraps (Unwrap) the cause, so errors.As
// reaches typed causes like *core.BudgetError, and a panicked error,
// through it.
type CellError struct {
	// Index and Label identify the cell in canonical spec order.
	Index int    `json:"index"`
	Label string `json:"label"`
	// Kind classifies the failure.
	Kind FailKind `json:"kind"`
	// Err is the underlying cause (for FailPanic, the recovered value
	// as an error).
	Err error `json:"-"`
	// Stack is the goroutine stack at the recovery point (FailPanic
	// only). Excluded from JSON and from Error(): stacks carry
	// goroutine IDs and addresses, which would break the byte-identity
	// of otherwise deterministic reports.
	Stack string `json:"-"`
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("runner: cell %d (%s): %s: %v", e.Index, e.Label, e.Kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// MarshalJSON serializes the deterministic fields plus the cause's
// rendered message (the Report.Failed JSON schema; see
// docs/benchmarking.md).
func (e *CellError) MarshalJSON() ([]byte, error) {
	msg := ""
	if e.Err != nil {
		msg = e.Err.Error()
	}
	return json.Marshal(struct {
		Index int    `json:"index"`
		Label string `json:"label"`
		Kind  string `json:"kind"`
		Error string `json:"error"`
	}{e.Index, e.Label, e.Kind.String(), msg})
}

// Report is the reconciled outcome of a sweep.
type Report struct {
	// Cells holds one Measurement per input Spec, in spec order,
	// regardless of which worker ran which cell. Failed (or, on a
	// fail-fast abort, never-started) cells leave their slot zero.
	Cells []Measurement
	// Failed lists the cells that did not complete, in canonical spec
	// order — deterministic at any worker count under KeepGoing. On the
	// fail-fast path it holds the failures that had been recorded when
	// the pool drained (always including the one returned as the error).
	Failed []*CellError
	// Workers is the pool size actually used.
	Workers int
}

// Sweep executes every cell of specs on a worker pool and reconciles the
// results into a Report. The Report is byte-identical for any worker
// count; see the package comment for the determinism contract.
//
// Failure handling: every cell runs under a recover() that converts
// panics into typed *CellError values, so a panicking detector can never
// take down the process or the sweep. Under Options.KeepGoing failing
// cells are recorded in Report.Failed (in canonical spec order) and every
// remaining cell still runs, with no error returned. Otherwise the sweep
// fails fast: the first failing cell in spec order is returned as a
// *CellError — independent of scheduling — ALONGSIDE the partial Report,
// so the measurements completed before the abort are never discarded
// (which cells those are depends on scheduling; only the KeepGoing report
// is deterministic).
func Sweep(specs []Spec, opt Options) (*Report, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if len(specs) == 0 {
		return &Report{Workers: 0}, nil
	}

	cells := make([]Measurement, len(specs))
	errs := make([]*CellError, len(specs))

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Dynamic queue: claim the next unclaimed cell. Each write
			// below touches only the claimed cell's slot — no locks on
			// the measurement path.
			for opt.KeepGoing || !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				// Re-check after claiming (fail-fast only): a claim that
				// races with another worker's failure would otherwise run
				// its cell to completion for a report that is already
				// doomed. The re-check cannot change which error is
				// reported: claims are monotonic, so any cell claimed
				// after failed was set has a higher index than the
				// failing cell, and the reconciliation below picks the
				// lowest index. Cells already in flight are allowed to
				// finish — there is no preemption seam through an
				// executing System, and letting them complete both keeps
				// the salvaged partial report maximal and keeps the
				// first-failure determinism argument simple (the first
				// failing cell in spec order was necessarily claimed
				// before the flag was set, so it always runs to
				// completion and records its error).
				if !opt.KeepGoing && failed.Load() {
					return
				}
				m, cerr := runCell(i, specs[i])
				if cerr != nil {
					errs[i] = cerr
					if !opt.KeepGoing {
						// Stop new claims pool-wide. Cells are claimed in
						// increasing index order and in-flight cells
						// finish, so the globally first failing cell is
						// always claimed and recorded before the pool
						// drains.
						failed.Store(true)
						return
					}
					continue
				}
				cells[i] = m
			}
		}()
	}
	wg.Wait()

	// Reconciliation: failures collected in canonical spec order
	// (scheduling cannot change which failure is first).
	rep := &Report{Cells: cells, Workers: workers}
	for _, cerr := range errs {
		if cerr != nil {
			rep.Failed = append(rep.Failed, cerr)
		}
	}
	if !opt.KeepGoing && len(rep.Failed) > 0 {
		return rep, rep.Failed[0]
	}
	return rep, nil
}

// runCell compiles and executes one cell in complete isolation: a fresh
// program, a fresh machine, a fresh system. The deferred recover is the
// containment boundary of the whole sweep engine, and the only recover
// outside tests: a panic anywhere in the stack under this cell becomes a
// typed *CellError instead of a process crash. Cell isolation is what
// makes the recovery safe: the cell's System is garbage, but nothing
// else shares state with it.
func runCell(i int, s Spec) (m Measurement, cerr *CellError) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("panic: %v", r)
			}
			cerr = &CellError{Index: i, Label: s.Label, Kind: FailPanic, Err: err,
				Stack: string(debug.Stack())}
		}
	}()
	prog, err := s.Source.Compile()
	if err != nil {
		return Measurement{}, &CellError{Index: i, Label: s.Label, Kind: FailCompile, Err: err}
	}
	res, err := core.Run(prog, s.Config)
	if err != nil {
		return Measurement{}, &CellError{Index: i, Label: s.Label, Kind: classify(err), Err: err}
	}
	return Measurement{Spec: s, Res: res}, nil
}

// classify maps a run error to its failure kind: typed budget errors are
// FailBudget, everything else FailRun.
func classify(err error) FailKind {
	var be *core.BudgetError
	if errors.As(err, &be) {
		return FailBudget
	}
	return FailRun
}
