package experiments

import (
	"encoding/json"
	"io"

	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/stats"
)

// BenchRecord is one (model, mode) measurement in a machine-readable bench
// report: the paper's simulated metrics.
type BenchRecord struct {
	Name      string  `json:"name"`       // PARSEC model
	Mode      string  `json:"mode"`       // "FastTrack" or "Aikido"
	Cycles    uint64  `json:"cycles"`     // simulated cycles
	SlowdownX float64 `json:"slowdown_x"` // vs native (Figure 5 metric)
	SharedPct float64 `json:"shared_pct"` // shared-access % (Figure 6 metric)
	Races     int     `json:"races"`      // reported races
}

// BenchReport is the document emitted by `aikido-bench -json`. It carries
// simulated results only, so its bytes are a pure function of the options.
//
// The worker count is deliberately absent: a report produced at -workers 8
// must be byte-identical to one produced at -workers 1, and CI diffs
// exactly that.
type BenchReport struct {
	Schema           string        `json:"schema"` // "aikido-bench/v1"
	Scale            float64       `json:"scale"`
	GeomeanFastTrack float64       `json:"geomean_fasttrack_slowdown_x"`
	GeomeanAikido    float64       `json:"geomean_aikido_slowdown_x"`
	Records          []BenchRecord `json:"records"`
}

// BenchJSON shards the Figure 5 workload matrix across the runner pool,
// one cell per (model, mode), and reconciles the machine-readable report
// in canonical matrix order.
func BenchJSON(o Options) (*BenchReport, error) {
	o = o.normalize()
	rep := &BenchReport{Schema: "aikido-bench/v1", Scale: o.Scale}
	benches := parsec.All()
	var specs []runner.Spec
	for _, b := range benches {
		specs = append(specs, o.modeCells(o.apply(b))...)
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var ftS, aftS []float64
	stride := len(sweepModes)
	for i, b := range benches {
		native := cells[stride*i].Res
		for j, sm := range sweepModes[1:] {
			label := sm.label
			m := cells[stride*i+1+j]
			slow := m.Res.Slowdown(native)
			rep.Records = append(rep.Records, BenchRecord{
				Name:      b.Name,
				Mode:      label,
				Cycles:    m.Res.Cycles,
				SlowdownX: slow,
				SharedPct: 100 * m.Res.SharedAccessFraction(),
				Races:     len(races(m.Res)),
			})
			if label == "FastTrack" {
				ftS = append(ftS, slow)
			} else {
				aftS = append(aftS, slow)
			}
		}
	}
	rep.GeomeanFastTrack = stats.Geomean(ftS)
	rep.GeomeanAikido = stats.Geomean(aftS)
	return rep, nil
}

// WriteBenchJSON renders the report as indented JSON.
func WriteBenchJSON(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
