package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/spbags"
	"repro/internal/workload"
)

// --- Extension: Nondeterminator (SP-bags) vs FastTrack ----------------------

// NondetRow compares the determinacy detector with FastTrack on one
// fork-join program.
type NondetRow struct {
	Program        string
	SPBagsRaces    int
	FastTrackRaces int
	Note           string
}

// ExtensionNondeterminator contrasts the two detector families the paper's
// §1 and §7.3 discuss: SP-bags is schedule independent (no false negatives
// for fork-join programs) and flags lock-ordered nondeterminism; FastTrack
// reports data races for the observed schedule only.
func ExtensionNondeterminator(o Options) ([]NondetRow, error) {
	o = o.normalize()
	elems := int(64 * o.Scale)
	if elems < 16 {
		elems = 16
	}
	cases := []struct {
		label string
		spec  workload.ForkJoinSpec
		note  string
	}{
		{"race-free", workload.ForkJoinSpec{Name: "fj-clean", Elems: elems, LeafSize: 8},
			"disjoint leaves: both agree"},
		{"racy-counter", workload.ForkJoinSpec{Name: "fj-racy", Elems: elems, LeafSize: 8, RacyCounter: true},
			"unsynchronized counter: both agree"},
		{"locked-counter", workload.ForkJoinSpec{Name: "fj-locked", Elems: elems, LeafSize: 8, LockCounter: true},
			"determinacy race but no data race: only SP-bags flags it"},
	}
	var specs []runner.Spec
	for _, c := range cases {
		specs = append(specs,
			runner.Spec{Label: c.label + "/spbags", Source: c.spec,
				Config: core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(spbags.Kind)},
			runner.Spec{Label: c.label + "/fasttrack", Source: c.spec,
				Config: core.DefaultConfig(core.ModeFastTrackFull)})
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []NondetRow
	for i, c := range cases {
		sp, ft := cells[2*i].Res, cells[2*i+1].Res
		rows = append(rows, NondetRow{
			Program:        c.label,
			SPBagsRaces:    sp.AnalysisFindings(spbags.Kind).Len(),
			FastTrackRaces: len(races(ft)),
			Note:           c.note,
		})
	}
	return rows, nil
}

// WriteExtensionNondeterminator renders the comparison.
func WriteExtensionNondeterminator(w io.Writer, rows []NondetRow) {
	fmt.Fprintln(w, "Extension: Nondeterminator-style SP-bags vs FastTrack on fork-join programs (§1, §7.3)")
	fmt.Fprintf(w, "%-16s %10s %12s   %s\n", "program", "SP-bags", "FastTrack", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d %12d   %s\n", r.Program, r.SPBagsRaces, r.FastTrackRaces, r.Note)
	}
}
