package core

// Resource budgets: a System with Config.MaxCycles or Config.MaxWall
// installs one per-quantum check on the DBI engine's existing scheduling
// boundary. When neither is configured the engine pays a single nil check
// and calibrated baselines are untouched.

import (
	"fmt"
	"time"
)

// BudgetError is the typed error a run returns when it exceeds a
// configured resource budget. errors.As against *BudgetError classifies
// it through any wrapping (the runner maps it to FailBudget).
type BudgetError struct {
	// Resource names the exhausted budget: "cycles" (simulated) or
	// "wall" (real time).
	Resource string
	// Limit is the configured budget and Used the observed consumption,
	// both in the resource's unit (cycles, or nanoseconds for wall).
	Limit uint64
	Used  uint64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget exceeded (used %d of %d)", e.Resource, e.Used, e.Limit)
}

// checkQuantum is the per-quantum budget check, installed as the engine's
// OnQuantum hook when a budget is configured. It only READS the clock on
// the existing scheduling boundary — it never charges cycles — so
// enabling a budget cannot perturb a run that stays within it. The
// simulated-cycle check is deterministic (same quantum boundaries, same
// clock values at any worker count); the wall check is inherently not,
// and deterministic reports must not enable MaxWall.
func (s *System) checkQuantum() error {
	if max := s.Cfg.MaxCycles; max > 0 {
		if used := s.Clock.Cycles(); used > max {
			return &BudgetError{Resource: "cycles", Limit: max, Used: used}
		}
	}
	if max := s.Cfg.MaxWall; max > 0 && !s.wallStart.IsZero() {
		if el := time.Since(s.wallStart); el > max { //detlint:ok MaxWall is a safety budget, documented as non-deterministic
			return &BudgetError{Resource: "wall", Limit: uint64(max), Used: uint64(el)}
		}
	}
	return nil
}

// armQuantumCheck installs checkQuantum when a budget asks for it.
func (s *System) armQuantumCheck() {
	if s.Cfg.MaxCycles > 0 || s.Cfg.MaxWall > 0 {
		s.Engine.OnQuantum = s.checkQuantum
	}
}
