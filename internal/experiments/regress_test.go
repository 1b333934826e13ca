package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestComparePairParsing pins the -compare argument contract: every
// malformed shape is a one-line error, never a half-parsed pair.
func TestComparePairParsing(t *testing.T) {
	o, n, err := ParseComparePair(" old.json , new.json ")
	if err != nil || o != "old.json" || n != "new.json" {
		t.Errorf("well-formed pair: got (%q, %q, %v)", o, n, err)
	}
	for _, arg := range []string{"", "old.json", "old.json,", ",new.json", " , ", ","} {
		if _, _, err := ParseComparePair(arg); err == nil {
			t.Errorf("ParseComparePair(%q) accepted a malformed argument", arg)
		}
	}
}

// TestCompareGateErrorPaths is the satellite hardening contract, table
// driven: unreadable files, invalid JSON, mixed schemas, mismatched
// scales and non-finite metrics must each produce a diagnostic error from
// the -compare gate — never a panic and never a silent pass.
func TestCompareGateErrorPaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json",
		`{"schema":"aikido-mux-bench/v1","scale":1,"geomean_cycle_speedup_x":2.0}`)

	cases := []struct {
		name    string
		oldPath string
		newPath string
		budget  float64
		errBit  string // substring the diagnostic must carry
	}{
		{"missing old file", filepath.Join(dir, "nope.json"), good, 5, "no such file"},
		{"missing new file", good, filepath.Join(dir, "nope.json"), 5, "no such file"},
		{"directory as file", dir, good, 5, ""},
		{"invalid JSON", write("garbage.json", `{"schema": truncated`), good, 5, ""},
		{"empty file", write("empty.json", ``), good, 5, ""},
		{"JSON array", write("array.json", `[1,2,3]`), good, 5, ""},
		{"unknown schema", write("what.json", `{"schema":"what/v9","scale":1}`), good, 5, "unknown schema"},
		{"missing schema", write("noschema.json", `{"scale":1,"geomean_cycle_speedup_x":2}`), good, 5, "unknown schema"},
		{"mixed schemas", good,
			write("epoch.json", `{"schema":"aikido-epoch-bench/v1","scale":1,"geomean_cycle_speedup_x":2}`),
			5, "schema mismatch"},
		{"mismatched scale", good,
			write("rescaled.json", `{"schema":"aikido-mux-bench/v1","scale":0.25,"geomean_cycle_speedup_x":2}`),
			5, "scale mismatch"},
		{"zero scale", write("zeroscale.json", `{"schema":"aikido-mux-bench/v1","scale":0,"geomean_cycle_speedup_x":2}`),
			good, 5, "invalid scale"},
		{"zero speedup", write("zerospeed.json", `{"schema":"aikido-mux-bench/v1","scale":1,"geomean_cycle_speedup_x":0}`),
			good, 5, "invalid speedup"},
		{"negative speedup", write("negspeed.json", `{"schema":"aikido-mux-bench/v1","scale":1,"geomean_cycle_speedup_x":-3}`),
			good, 5, "invalid speedup"},
		{"NaN speedup would silently pass thresholds",
			write("nanspeed.json", `{"schema":"aikido-mux-bench/v1","scale":1,"geomean_cycle_speedup_x":"NaN"}`),
			good, 5, ""},
		{"zero aikido geomean", write("zeroaikido.json",
			`{"schema":"aikido-bench/v1","scale":1,"geomean_fasttrack_slowdown_x":100,"geomean_aikido_slowdown_x":0}`),
			good, 5, "invalid slowdown"},
		{"negative budget", good, good, -5, "invalid regression budget"},
		{"huge regression", good,
			write("slow.json", `{"schema":"aikido-mux-bench/v1","scale":1,"geomean_cycle_speedup_x":0.5}`),
			5, "regressed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The contract under test is "never a panic": a panic here
			// fails the test run loudly, which is exactly the regression
			// this table pins.
			_, err := CompareSnapshots(tc.oldPath, tc.newPath, tc.budget)
			if err == nil {
				t.Fatalf("%s: gate passed silently", tc.name)
			}
			if tc.errBit != "" && !strings.Contains(err.Error(), tc.errBit) {
				t.Errorf("%s: diagnostic %q missing %q", tc.name, err, tc.errBit)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: diagnostic is not one line: %q", tc.name, err)
			}
		})
	}

	// The schemas of the deleted deferred and parallel dispatch snapshots
	// and of the deleted static pre-pass snapshot are rejected, so an old
	// -compare gate fails instead of passing.
	for _, schema := range []string{"aikido-deferred-bench/v1", "aikido-parallel-bench/v1", "aikido-static-bench/v1"} {
		path := write(strings.TrimSuffix(schema, "/v1")+".json",
			`{"schema":"`+schema+`","scale":1,"geomean_cycle_speedup_x":1.5}`)
		if s, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "unknown schema") {
			t.Errorf("%s snapshot: got %+v, %v; want an unknown-schema error", schema, s, err)
		}
	}
}
