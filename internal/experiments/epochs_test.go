package experiments

import "testing"

// TestEpochsExperiment runs the epochs suite at test scale and checks
// the report's claims: findings identical everywhere, a real win on the
// phased/migratory rows, demotions firing, and a strictly neutral
// false-sharing control.
func TestEpochsExperiment(t *testing.T) {
	o := Options{Scale: 0.5, Workers: 2}
	rows := epochRows(o, runNamed(t, "epochs", o, "geomean cycle speedup"))
	if len(rows) != len(epochSuite(o)) {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]EpochRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if !r.FindingsIdentical {
			t.Errorf("%s: findings diverged under demotion", r.Name)
		}
	}
	for _, name := range []string{"phased", "migratory"} {
		r := byName[name]
		if r.CycleSpeedup < 1.2 {
			t.Errorf("%s: cycle speedup %.2fx, want >= 1.2x", name, r.CycleSpeedup)
		}
		if r.PagesDemotedPrivate == 0 {
			t.Errorf("%s: no demotions", name)
		}
		if r.EpochSharedAccesses >= r.BaselineSharedAccesses {
			t.Errorf("%s: demotion did not reduce instrumented shared accesses (%d -> %d)",
				name, r.BaselineSharedAccesses, r.EpochSharedAccesses)
		}
	}
	fs := byName["falseshare"]
	if fs.CycleSpeedup != 1.0 || fs.PagesDemotedPrivate+fs.PagesDemotedUnused != 0 {
		t.Errorf("falseshare control not neutral: %+v", fs)
	}
	if byName["migratory"].PagesReshared == 0 {
		t.Error("migratory: handoffs never re-shared a demoted page")
	}
}
