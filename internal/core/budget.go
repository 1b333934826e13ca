package core

// The simulated-cycle budget: a System with Config.MaxCycles installs one
// per-quantum check on the DBI engine's existing scheduling boundary.
// When it is not configured the engine pays a single nil check and
// calibrated baselines are untouched.

import "fmt"

// BudgetError is the typed error a run returns when its simulated clock
// exceeds Config.MaxCycles. errors.As against *BudgetError classifies it
// through any wrapping (the runner maps it to FailBudget).
type BudgetError struct {
	// Limit is the configured budget and Used the clock reading that
	// exceeded it, both in simulated cycles.
	Limit uint64
	Used  uint64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: cycles budget exceeded (used %d of %d)", e.Used, e.Limit)
}

// checkQuantum is the per-quantum budget check, installed as the engine's
// OnQuantum hook when a budget is configured. It only READS the clock on
// the existing scheduling boundary — it never charges cycles — so
// enabling a budget cannot perturb a run that stays within it, and the
// check is deterministic: the same quantum boundaries see the same clock
// values at any worker count.
func (s *System) checkQuantum() error {
	if used := s.Clock.Cycles(); used > s.Cfg.MaxCycles {
		return &BudgetError{Limit: s.Cfg.MaxCycles, Used: used}
	}
	return nil
}

// armQuantumCheck installs checkQuantum when a budget asks for it.
func (s *System) armQuantumCheck() {
	if s.Cfg.MaxCycles > 0 {
		s.Engine.OnQuantum = s.checkQuantum
	}
}
