package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parsec"
	"repro/internal/runner"
)

// ChaosMaxCycles is the simulated-cycle budget stamped on every chaos
// cell. It is sized between any clean run and one injected stall:
// orders of magnitude above what any benchmark in the matrix consumes
// (the largest full-scale instrumented runs sit near 10^9 cycles), and
// half of faultinject.StallCycles — so a stall-kind fault reliably
// surfaces as a typed *core.BudgetError instead of silently inflating
// the simulated clock, while no stall-free cell can ever trip it.
const ChaosMaxCycles = faultinject.StallCycles / 2

// ChaosRow is one chaos cell's deterministic observation: everything in
// it depends only on the spec and the plan, never on the worker pool or
// wall clock — the byte-identity check serializes exactly these rows.
type ChaosRow struct {
	Label string `json:"label"`
	// Completed cells report their simulated totals; failed cells leave
	// them zero (the failure is in ChaosReport.Failed instead).
	Cycles uint64 `json:"cycles,omitempty"`
	// Findings is each analysis's rendered findings, in canonical
	// analysis order (empty for native and failed cells).
	Findings []string `json:"findings,omitempty"`
	// RearmFailures counts the degradations the cell absorbed: epoch
	// demotions vetoed because the provider's rearm failed.
	RearmFailures uint64 `json:"rearm_failures,omitempty"`
}

// ChaosReport is the chaos sweep's machine-readable document.
type ChaosReport struct {
	Schema string `json:"schema"` // "aikido-chaos/v1"
	// Plan is the canonical rendering of the executed plan ("" = empty:
	// the sweep then checks pure-overhead byte-identity instead).
	Plan    string  `json:"plan"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	// Cells / Completed / FailedCells summarize survival: every cell
	// either completed or failed with a typed error — the process never
	// died.
	Cells       int `json:"cells"`
	Completed   int `json:"completed"`
	FailedCells int `json:"failed_cells"`
	// Failed lists the failures in canonical spec order (the runner's
	// CellError JSON schema: index, label, kind, error).
	Failed []*runner.CellError `json:"failed"`
	// TypedErrors reports whether every failure unwrapped to a typed
	// fault (*faultinject.Fault or *core.BudgetError) — anything else
	// means a seam leaked an untyped panic and the sweep errors out.
	TypedErrors bool `json:"typed_errors"`
	// Deterministic reports that the -workers N report was byte-identical
	// to a -workers 1 re-run (always re-checked, never assumed).
	Deterministic bool `json:"deterministic"`
	// RearmFailures sums the degradations absorbed across all completed
	// cells.
	RearmFailures uint64     `json:"rearm_failures"`
	Rows          []ChaosRow `json:"rows"`
}

// chaosSpecs builds the chaos matrix: the full Figure-5 model×mode grid
// (provider-agnostic seams: guest and analysis), plus the epoch suite's
// demoting workloads as epoch-enabled Aikido cells, which are the only
// cells that cross the provider seam (RearmPage fires during demotion).
func (o Options) chaosSpecs(plan *faultinject.Plan, stamp bool) []runner.Spec {
	var specs []runner.Spec
	for _, b := range parsec.All() {
		for _, spec := range o.modeCells(o.apply(b)) {
			if stamp {
				spec.Config.Chaos = plan
				spec.Config.MaxCycles = ChaosMaxCycles
			}
			specs = append(specs, spec)
		}
	}
	epochCfg := core.DefaultConfig(core.ModeAikidoFastTrack)
	epochCfg.Analyses = o.Analyses
	epochCfg.Epoch = o.epochPolicy()
	if stamp {
		epochCfg.Chaos = plan
		epochCfg.MaxCycles = ChaosMaxCycles
	}
	for _, c := range epochSuite(o) {
		specs = append(specs, runner.Spec{Label: c.name + "/epoch", Source: c.src, Config: epochCfg})
	}
	return specs
}

// chaosRows reduces a KeepGoing report to its deterministic observations.
func chaosRows(specs []runner.Spec, rep *runner.Report) []ChaosRow {
	rows := make([]ChaosRow, len(specs))
	for i, m := range rep.Cells {
		row := ChaosRow{Label: specs[i].Label}
		if m.Res != nil {
			row.Cycles = m.Res.Cycles
			for _, name := range m.Res.AnalysisNames() {
				row.Findings = append(row.Findings, m.Res.Findings[name].Strings()...)
			}
			row.RearmFailures = m.Res.SD.RearmFailures
		}
		rows[i] = row
	}
	return rows
}

// chaosBytes is the byte-identity serialization: rows plus failures.
func chaosBytes(rows []ChaosRow, failed []*runner.CellError) ([]byte, error) {
	return json.Marshal(struct {
		Rows   []ChaosRow          `json:"rows"`
		Failed []*runner.CellError `json:"failed"`
	}{rows, failed})
}

// ChaosSweep runs the fault-injection acceptance harness: the chaos
// matrix under the given plan, with every containment contract checked
// on the spot. It returns an error — after completing the whole sweep —
// if any contract is violated:
//
//   - survival: every cell either completes or fails with a recorded
//     CellError (the sweep itself uses KeepGoing; reaching the checks at
//     all means no injected fault escaped containment),
//   - typing: every failure unwraps to *faultinject.Fault or
//     *core.BudgetError,
//   - determinism: the report is byte-identical to a -workers 1 re-run,
//   - idle overhead: an empty plan's report is byte-identical to the
//     same matrix with no chaos configuration stamped at all.
func ChaosSweep(o Options, planStr string) (*ChaosReport, error) {
	o = o.normalize()
	plan, err := faultinject.ParsePlan(planStr)
	if err != nil {
		return nil, err
	}
	specs := o.chaosSpecs(plan, true)
	rep, err := runner.Sweep(specs, runner.Options{Workers: o.Workers, KeepGoing: true})
	if err != nil {
		return nil, fmt.Errorf("chaos sweep: %w", err)
	}
	rows := chaosRows(specs, rep)
	got, err := chaosBytes(rows, rep.Failed)
	if err != nil {
		return nil, err
	}

	r := &ChaosReport{
		Schema:      "aikido-chaos/v1",
		Plan:        plan.String(),
		Scale:       o.Scale,
		Workers:     o.Workers,
		Cells:       len(specs),
		Completed:   len(specs) - len(rep.Failed),
		FailedCells: len(rep.Failed),
		Failed:      rep.Failed,
		TypedErrors: true,
		Rows:        rows,
	}
	for _, row := range rows {
		r.RearmFailures += row.RearmFailures
	}
	for _, ce := range rep.Failed {
		var f *faultinject.Fault
		var be *core.BudgetError
		if !errors.As(ce, &f) && !errors.As(ce, &be) {
			r.TypedErrors = false
			err = errors.Join(err, fmt.Errorf("cell %d (%s): untyped failure: %w", ce.Index, ce.Label, ce.Err))
		}
	}

	// Determinism: the exact same sweep, serial. Byte-for-byte.
	serialRep, serr := runner.Sweep(specs, runner.Options{Workers: 1, KeepGoing: true})
	if serr != nil {
		return nil, fmt.Errorf("serial chaos sweep: %w", serr)
	}
	serial, serr := chaosBytes(chaosRows(specs, serialRep), serialRep.Failed)
	if serr != nil {
		return nil, serr
	}
	r.Deterministic = bytes.Equal(got, serial)
	if !r.Deterministic {
		err = errors.Join(err, errors.New("chaos report differs between -workers N and -workers 1"))
	}

	// Idle overhead: an empty plan must not perturb a single byte of the
	// un-stamped matrix (Config.Chaos nil, no cycle budget).
	if plan.Empty() {
		bare := o.chaosSpecs(nil, false)
		bareRep, berr := runner.Sweep(bare, runner.Options{Workers: o.Workers, KeepGoing: true})
		if berr != nil {
			return nil, fmt.Errorf("bare sweep: %w", berr)
		}
		bareBytes, berr := chaosBytes(chaosRows(bare, bareRep), bareRep.Failed)
		if berr != nil {
			return nil, berr
		}
		if !bytes.Equal(got, bareBytes) {
			err = errors.Join(err, errors.New("empty chaos plan perturbed the chaos-free matrix"))
		}
	}
	return r, err
}

// WriteChaos renders the chaos report.
func WriteChaos(w io.Writer, r *ChaosReport) {
	plan := r.Plan
	if plan == "" {
		plan = "(empty — idle-overhead identity checked)"
	}
	fmt.Fprintf(w, "Chaos sweep: plan %s\n", plan)
	fmt.Fprintf(w, "cells %d: %d completed, %d failed (all typed: %v); deterministic across worker counts: %v\n",
		r.Cells, r.Completed, r.FailedCells, r.TypedErrors, r.Deterministic)
	fmt.Fprintf(w, "degradations absorbed: %d rearm failures\n", r.RearmFailures)
	for _, ce := range r.Failed {
		fmt.Fprintf(w, "  cell %3d %-28s %-7s %v\n", ce.Index, ce.Label, ce.Kind, ce.Err)
	}
}
