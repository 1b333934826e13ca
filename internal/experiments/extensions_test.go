package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationPagingStructure(t *testing.T) {
	rows, err := AblationPaging(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 benchmarks × 2 modes
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		shadow, nested := rows[i], rows[i+1]
		if shadow.Mode != "shadow-paging" || nested.Mode != "nested-paging" {
			t.Fatalf("row order broken: %v / %v", shadow.Mode, nested.Mode)
		}
		if shadow.Races != nested.Races {
			t.Errorf("%s: races differ across paging modes (%d vs %d)",
				shadow.Name, shadow.Races, nested.Races)
		}
		if shadow.PTTraps == 0 {
			t.Errorf("%s: shadow paging trapped no PT updates", shadow.Name)
		}
		if nested.PTTraps != 0 {
			t.Errorf("%s: nested paging trapped %d PT updates", nested.Name, nested.PTTraps)
		}
		if shadow.Fills == 0 || nested.Fills == 0 {
			t.Errorf("%s: missing translation fills", shadow.Name)
		}
	}
	var buf bytes.Buffer
	WriteAblationPaging(&buf, rows)
	if !strings.Contains(buf.String(), "nested-paging") {
		t.Error("rendering lost modes")
	}
}

func TestAblationSwitchStructure(t *testing.T) {
	rows, err := AblationSwitch(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	unmodified := 0
	for _, r := range rows {
		if r.Slow <= 1 {
			t.Errorf("%s: slowdown %.2f not > 1", r.Mechanism, r.Slow)
		}
		if r.UnmodifiedOS {
			unmodified++
		}
	}
	if unmodified != 2 {
		t.Errorf("%d mechanisms claim unmodified OS, want 2 (segtrap, probe)", unmodified)
	}
	// The mechanisms must be close in cost — transparency, not speed, is
	// the differentiator (§3.2.3).
	min, max := rows[0].Slow, rows[0].Slow
	for _, r := range rows {
		if r.Slow < min {
			min = r.Slow
		}
		if r.Slow > max {
			max = r.Slow
		}
	}
	if max/min > 1.10 {
		t.Errorf("switch mechanisms differ by %.1f%% — should be close", 100*(max/min-1))
	}
	var buf bytes.Buffer
	WriteAblationSwitch(&buf, rows)
	if !strings.Contains(buf.String(), "fsgs-trap") {
		t.Error("rendering lost mechanisms")
	}
}

func TestExtensionNondeterminatorStructure(t *testing.T) {
	rows, err := ExtensionNondeterminator(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]NondetRow{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	if r := byName["race-free"]; r.SPBagsRaces != 0 || r.FastTrackRaces != 0 {
		t.Errorf("race-free: %+v", r)
	}
	if r := byName["racy-counter"]; r.SPBagsRaces == 0 || r.FastTrackRaces == 0 {
		t.Errorf("racy-counter: %+v", r)
	}
	// The semantic gap: determinacy race without a data race.
	if r := byName["locked-counter"]; r.SPBagsRaces == 0 || r.FastTrackRaces != 0 {
		t.Errorf("locked-counter: %+v", r)
	}
	var buf bytes.Buffer
	WriteExtensionNondeterminator(&buf, rows)
	if !strings.Contains(buf.String(), "SP-bags") {
		t.Error("rendering broken")
	}
}
