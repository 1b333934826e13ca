package experiments

import (
	"testing"

	"repro/internal/fasttrack"
	"repro/internal/spbags"
)

func TestExtensionNondeterminatorStructure(t *testing.T) {
	res := runNamed(t, "nondet", quick, "SP-bags")
	cases := nondetCases(quick.normalize())
	if len(res) != 2*len(cases) || len(cases) != 3 {
		t.Fatalf("%d cells for %d programs, want 6 for 3", len(res), len(cases))
	}
	races := map[string][2]int{} // program → SP-bags, FastTrack
	for i, c := range cases {
		races[c.label] = [2]int{res[2*i].AnalysisFindings(spbags.Kind).Len(),
			len(fasttrack.RacesIn(res[2*i+1].Findings))}
	}
	if r := races["race-free"]; r[0] != 0 || r[1] != 0 {
		t.Errorf("race-free: SP-bags, FastTrack = %v", r)
	}
	if r := races["racy-counter"]; r[0] == 0 || r[1] == 0 {
		t.Errorf("racy-counter: SP-bags, FastTrack = %v", r)
	}
	// The semantic gap: determinacy race without a data race.
	if r := races["locked-counter"]; r[0] == 0 || r[1] != 0 {
		t.Errorf("locked-counter: SP-bags, FastTrack = %v", r)
	}
}
