package fasttrack

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzCorpusReplay promotes the checked-in fuzz corpus to a blocking
// regression suite: every seed under testdata/fuzz/FuzzVarStore
// replays deterministically through the same differential oracle as the
// fuzz target, under plain `go test` — no -fuzz flag, no fuzzing engine.
// Open-ended fuzzing stays a separate, non-blocking CI leg; once an input
// found there is checked in here, regressing on it fails the tier-1 suite.
func TestFuzzCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzVarStore")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty — the replay suite is vacuous")
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			data, err := parseCorpusFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("parsing corpus file: %v", err)
			}
			varStoreOracle(t, data)
		})
	}
}

// parseCorpusFile decodes one Go fuzz corpus file: a "go test fuzz v1"
// header followed by one []byte("...") literal per fuzz argument (this
// target takes exactly one).
func parseCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, &corpusFormatError{path: path, detail: "want a 2-line 'go test fuzz v1' file"}
	}
	lit := strings.TrimSpace(lines[1])
	const prefix, suffix = `[]byte(`, `)`
	if !strings.HasPrefix(lit, prefix) || !strings.HasSuffix(lit, suffix) {
		return nil, &corpusFormatError{path: path, detail: "argument is not a []byte literal"}
	}
	s, err := strconv.Unquote(lit[len(prefix) : len(lit)-len(suffix)])
	if err != nil {
		return nil, &corpusFormatError{path: path, detail: "unquoting byte string: " + err.Error()}
	}
	return []byte(s), nil
}

type corpusFormatError struct {
	path, detail string
}

func (e *corpusFormatError) Error() string {
	return "corpus file " + e.path + ": " + e.detail
}
