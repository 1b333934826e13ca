package experiments

import (
	"bytes"
	"strings"
	"testing"
)

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
