package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource writes src under dir/rel and lints it, returning the
// finding messages.
func lintSource(t *testing.T, rel, src string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := lintFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, f := range fs {
		msgs = append(msgs, f.msg)
	}
	return msgs
}

func wantFinding(t *testing.T, msgs []string, substr string) {
	t.Helper()
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Errorf("no finding containing %q in %v", substr, msgs)
}

func TestWallClockForbidden(t *testing.T) {
	src := `package p
import "time"
func f() time.Time { return time.Now() }
func g(s time.Time) time.Duration { return time.Since(s) }
`
	msgs := lintSource(t, "p/p.go", src)
	if len(msgs) != 2 {
		t.Fatalf("want 2 findings, got %v", msgs)
	}
	wantFinding(t, msgs, "time.Now")
	wantFinding(t, msgs, "time.Since")
}

// TestWallClockForbiddenInRunner: the runner has no wall-clock exemption;
// only a //detlint:ok line comment allows a host-clock read.
func TestWallClockForbiddenInRunner(t *testing.T) {
	src := `package runner
import "time"
func f() time.Time { return time.Now() }
`
	msgs := lintSource(t, "internal/runner/runner.go", src)
	if len(msgs) != 1 {
		t.Fatalf("want 1 finding, got %v", msgs)
	}
	wantFinding(t, msgs, "time.Now")
}

func TestAliasedImportStillCaught(t *testing.T) {
	src := `package p
import clock "time"
func f() clock.Time { return clock.Now() }
`
	wantFinding(t, lintSource(t, "p/p.go", src), "time.Now")
}

func TestGlobalRandForbiddenSeededAllowed(t *testing.T) {
	src := `package p
import "math/rand"
func f() int { return rand.Intn(10) }
func g() *rand.Rand { return rand.New(rand.NewSource(1)) }
`
	msgs := lintSource(t, "p/p.go", src)
	if len(msgs) != 1 {
		t.Fatalf("want exactly the rand.Intn finding, got %v", msgs)
	}
	wantFinding(t, msgs, "rand.Intn")
}

func TestRangeOverMapFeedingOutput(t *testing.T) {
	src := `package p
import "fmt"
func f(m map[string]int) {
	byName := map[string]int{}
	for k, v := range byName {
		fmt.Println(k, v)
	}
	var out []string
	for k := range byName {
		out = append(out, k)
	}
}
`
	msgs := lintSource(t, "p/p.go", src)
	if len(msgs) != 2 {
		t.Fatalf("want 2 findings, got %v", msgs)
	}
	wantFinding(t, msgs, "map iteration order")
}

func TestCollectThenSortSanitizes(t *testing.T) {
	src := `package p
import "sort"
func f() []string {
	m := map[string]int{}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`
	if msgs := lintSource(t, "p/p.go", src); len(msgs) != 0 {
		t.Errorf("collect-then-sort idiom should be clean, got %v", msgs)
	}
}

func TestRangeOverMapWithoutOutputClean(t *testing.T) {
	src := `package p
func f(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
`
	// m is a parameter, not a file-local map declaration — and the body
	// feeds a commutative reduction, not an ordering. Either way: clean.
	if msgs := lintSource(t, "p/p.go", src); len(msgs) != 0 {
		t.Errorf("commutative reduction should be clean, got %v", msgs)
	}
}

func TestAllowlistComment(t *testing.T) {
	src := `package p
import "time"
func f() time.Time {
	return time.Now() //detlint:ok frozen clock injected in tests
}
func g() time.Time {
	//detlint:ok reason above the line
	return time.Now()
}
func h() time.Time {
	//detlint:ok
	return time.Now()
}
`
	// The first two are silenced (trailing and line-above); the bare
	// //detlint:ok with no reason must NOT silence.
	msgs := lintSource(t, "p/p.go", src)
	if len(msgs) != 1 {
		t.Fatalf("want 1 finding (reasonless allowlist rejected), got %v", msgs)
	}
}
