package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Snapshot is the schema-agnostic view of one committed BENCH_<n>.json
// file the regression gate compares: each schema defines one headline
// "geomean cycle speedup" metric.
//
//   - aikido-bench/v1: geomean FastTrack slowdown / geomean Aikido
//     slowdown — the Figure 5 headline (how much Aikido beats the
//     conservative baseline);
//   - aikido-mux-bench/v1: geomean_cycle_speedup_x — N sequential passes
//     vs one multiplexed pass (BENCH_3.json);
//   - aikido-epoch-bench/v1: geomean_cycle_speedup_x — terminal-Shared
//     baseline vs epoch demotion (BENCH_4.json);
//   - aikido-vector-bench/v1: geomean_cycle_speedup_x — per-access
//     inline dispatch vs vectorized batch kernels under the
//     transition-cost model (BENCH_7.json);
//   - aikido-phase-bench/v1: geomean_cycle_speedup_x — inline dispatch vs
//     Doppel-style split-phase hot-page banking under the same model
//     (BENCH_9.json).
type Snapshot struct {
	Path    string
	Schema  string
	Scale   float64
	Speedup float64
}

// snapshotFields is the union of the headline fields across the BENCH
// schemas; only the ones present in the file decode.
type snapshotFields struct {
	Schema           string  `json:"schema"`
	Scale            float64 `json:"scale"`
	GeomeanFastTrack float64 `json:"geomean_fasttrack_slowdown_x"`
	GeomeanAikido    float64 `json:"geomean_aikido_slowdown_x"`
	GeomeanSpeedup   float64 `json:"geomean_cycle_speedup_x"`
}

// finite rejects the float values a malformed or hand-edited snapshot can
// smuggle past plain threshold comparisons: NaN compares false with
// everything, so a NaN speedup would sail through the regression check as
// a silent pass.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ReadSnapshot loads a BENCH_<n>.json (or freshly produced report) and
// extracts its headline geomean cycle-speedup metric. Every malformed
// shape — unreadable file, invalid JSON, unknown schema, non-positive or
// non-finite metrics — is a one-line error, never a panic and never a
// value that could later compare as a pass.
func ReadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("regress: %w", err)
	}
	var f snapshotFields
	if err := json.Unmarshal(data, &f); err != nil {
		return Snapshot{}, fmt.Errorf("regress: %s: %w", path, err)
	}
	if !finite(f.Scale) || f.Scale <= 0 {
		return Snapshot{}, fmt.Errorf("regress: %s: invalid scale %v", path, f.Scale)
	}
	s := Snapshot{Path: path, Schema: f.Schema, Scale: f.Scale}
	switch f.Schema {
	case "aikido-bench/v1":
		if !finite(f.GeomeanFastTrack) || !finite(f.GeomeanAikido) || f.GeomeanAikido <= 0 {
			return Snapshot{}, fmt.Errorf("regress: %s: invalid slowdown geomeans (%v / %v)",
				path, f.GeomeanFastTrack, f.GeomeanAikido)
		}
		s.Speedup = f.GeomeanFastTrack / f.GeomeanAikido
	case "aikido-mux-bench/v1", "aikido-epoch-bench/v1", "aikido-vector-bench/v1",
		"aikido-phase-bench/v1":
		s.Speedup = f.GeomeanSpeedup
	default:
		return Snapshot{}, fmt.Errorf("regress: %s: unknown schema %q", path, f.Schema)
	}
	if !finite(s.Speedup) || s.Speedup <= 0 {
		return Snapshot{}, fmt.Errorf("regress: %s: invalid speedup metric %v", path, s.Speedup)
	}
	return s, nil
}

// ParseComparePair splits a -compare argument into its OLD and NEW paths,
// rejecting every malformed shape with a one-line diagnostic (the cmd
// exits nonzero on error — the CI gate must never half-parse its way into
// a silent pass).
func ParseComparePair(arg string) (oldPath, newPath string, err error) {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	oldPath, newPath = strings.TrimSpace(oldPath), strings.TrimSpace(newPath)
	if !ok || oldPath == "" || newPath == "" {
		return "", "", fmt.Errorf("regress: -compare wants OLD.json,NEW.json (got %q)", arg)
	}
	return oldPath, newPath, nil
}

// CompareSnapshots is the CI bench-regression gate: it reads the
// committed baseline and a freshly produced report of the same schema
// and scale, and returns an error when the new geomean cycle speedup has
// regressed by more than maxRegressPct percent. The returned summary is
// printed either way, so the CI log carries the trajectory. A regression
// budget that is negative or not finite is itself an error: a NaN budget
// would turn the threshold comparison into a silent pass.
func CompareSnapshots(oldPath, newPath string, maxRegressPct float64) (string, error) {
	if !finite(maxRegressPct) || maxRegressPct < 0 {
		return "", fmt.Errorf("regress: invalid regression budget %v%%", maxRegressPct)
	}
	oldS, err := ReadSnapshot(oldPath)
	if err != nil {
		return "", err
	}
	newS, err := ReadSnapshot(newPath)
	if err != nil {
		return "", err
	}
	if oldS.Schema != newS.Schema {
		return "", fmt.Errorf("regress: schema mismatch: %s is %q, %s is %q",
			oldPath, oldS.Schema, newPath, newS.Schema)
	}
	if oldS.Scale != newS.Scale {
		return "", fmt.Errorf(
			"regress: scale mismatch: %s was taken at -scale %g, %s at -scale %g (speedups are scale-dependent; rerun at the baseline's scale)",
			oldPath, oldS.Scale, newPath, newS.Scale)
	}
	change := 100 * (newS.Speedup/oldS.Speedup - 1)
	summary := fmt.Sprintf("%s: geomean cycle speedup %.3fx -> %.3fx (%+.2f%%, floor -%.0f%%)",
		oldS.Schema, oldS.Speedup, newS.Speedup, change, maxRegressPct)
	if newS.Speedup < oldS.Speedup*(1-maxRegressPct/100) {
		return summary, fmt.Errorf("regress: geomean cycle speedup regressed %.2f%% (%.3fx -> %.3fx, budget %.0f%%)",
			-change, oldS.Speedup, newS.Speedup, maxRegressPct)
	}
	return summary, nil
}
