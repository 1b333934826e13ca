package analysis

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
)

// stub is a minimal recording analysis for registry and mux tests.
type stub struct {
	NoSync
	name    string
	events  []string
	shared  int
	accs    int
	threads int
}

func (s *stub) Name() string { return s.name }
func (s *stub) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	s.accs++
}
func (s *stub) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	s.shared++
}
func (s *stub) OnFork(parent, child guest.TID) { s.events = append(s.events, "fork") }
func (s *stub) OnExit(tid guest.TID)           { s.events = append(s.events, "exit") }
func (s *stub) AddThread(delta int)            { s.threads += delta }
func (s *stub) Report() Findings {
	return &stubFindings{name: s.name, lines: []string{s.name + "-finding"}}
}

type stubFindings struct {
	name  string
	lines []string
}

func (f *stubFindings) Analysis() string  { return f.name }
func (f *stubFindings) Len() int          { return len(f.lines) }
func (f *stubFindings) Strings() []string { return f.lines }
func (f *stubFindings) Summary() string   { return f.name + "-summary" }

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := &Registry{}
	r.Register("alpha", func(Env) (Analysis, error) { return &stub{name: "alpha"}, nil })
	r.Register("beta", func(Env) (Analysis, error) { return &stub{name: "beta"}, nil })
	r.RegisterAlias("a", "alpha")
	r.RegisterWrapper("wrap", "alpha", func(inner Analysis, innerName string, env Env) (Analysis, error) {
		return &stub{name: "wrap:" + innerName}, nil
	})
	return r
}

func TestRegistryResolveAndNew(t *testing.T) {
	r := newTestRegistry(t)
	cases := map[string]string{
		"alpha":      "alpha",
		"a":          "alpha",
		" beta ":     "beta",
		"wrap":       "wrap:alpha",
		"wrap:beta":  "wrap:beta",
		"wrap:a":     "wrap:alpha",
		"nonesuch":   "nonesuch",
		"wrap:bogus": "wrap:bogus",
	}
	for in, want := range cases {
		if got := r.Resolve(in); got != want {
			t.Errorf("Resolve(%q) = %q, want %q", in, got, want)
		}
	}
	a, err := r.New("a", Env{})
	if err != nil || a.Name() != "alpha" {
		t.Errorf("New(a) = %v, %v", a, err)
	}
	w, err := r.New("wrap:beta", Env{})
	if err != nil || w.Name() != "wrap:beta" {
		t.Errorf("New(wrap:beta) = %v, %v", w, err)
	}
	if _, err := r.New("nonesuch", Env{}); err == nil {
		t.Error("unknown analysis accepted")
	}
	if _, err := r.New("wrap:bogus", Env{}); err == nil {
		t.Error("unknown wrapped inner accepted")
	}
}

func TestRegistryNewAllRejectsDuplicates(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.NewAll([]string{"alpha", "a"}, Env{}); err == nil {
		t.Error("alias duplicate not rejected")
	}
	as, err := r.NewAll([]string{"alpha", "beta", "wrap"}, Env{})
	if err != nil || len(as) != 3 {
		t.Fatalf("NewAll = %v, %v", as, err)
	}
}

// TestRegistryCheck: Check accepts what NewAll would build, composed
// names with a registered wrapper included, rejects what it would refuse,
// and builds nothing either way.
func TestRegistryCheck(t *testing.T) {
	built := 0
	r := &Registry{}
	r.Register("alpha", func(Env) (Analysis, error) { built++; return &stub{name: "alpha"}, nil })
	r.Register("beta", func(Env) (Analysis, error) { built++; return &stub{name: "beta"}, nil })
	r.RegisterAlias("a", "alpha")
	r.RegisterWrapper("wrap", "alpha", func(inner Analysis, innerName string, env Env) (Analysis, error) {
		built++
		return &stub{name: "wrap:" + innerName}, nil
	})
	for _, names := range [][]string{nil, {"alpha", "beta"}, {"a"}, {"wrap:beta"}, {"wrap", "alpha"}, {"wrap:wrap:beta"}} {
		if err := r.Check(names); err != nil {
			t.Errorf("Check(%q) = %v, want nil", names, err)
		}
	}
	for _, names := range [][]string{{"bogus"}, {"nowrap:beta"}, {"wrap:bogus"}, {"wrap:"}, {"alpha", "a"}, {"wrap", "wrap:a"}} {
		err := r.Check(names)
		if err == nil {
			t.Errorf("Check(%q) accepted", names)
		}
		if _, nerr := r.NewAll(names, Env{}); nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("NewAll(%q) = %v, want Check's %v", names, nerr, err)
		}
	}
	if built != 0 {
		t.Errorf("Check built %d analyses, want none", built)
	}
}

func TestRegistryDuplicateRegistrationPanics(t *testing.T) {
	r := newTestRegistry(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register("alpha", func(Env) (Analysis, error) { return nil, nil })
}

func TestRegistryNames(t *testing.T) {
	r := newTestRegistry(t)
	want := []string{"alpha", "beta", "wrap"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestDefaultRegistryHostsAllDetectors(t *testing.T) {
	// The in-tree detectors register in init(); importing them through a
	// test-only import would be circular, so this only checks the seam
	// exists — core's tests pin the full population.
	if Names() == nil {
		t.Skip("no detectors linked into this test binary")
	}
}

func TestParseList(t *testing.T) {
	got := ParseList(" ft, lockset ,,atomicity ")
	want := []string{"ft", "lockset", "atomicity"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseList = %v, want %v", got, want)
	}
	if ParseList("") != nil {
		t.Error("empty list not nil")
	}
}

func TestMuxDispatchAndReport(t *testing.T) {
	a, b := &stub{name: "alpha"}, &stub{name: "beta"}
	m := NewMux(a, b)
	if m.Name() != "mux(alpha+beta)" {
		t.Errorf("mux name = %q", m.Name())
	}
	m.OnSharedAccess(1, 2, 0x1000, 8, true)
	m.OnAccess(1, 2, 0x1000, 8, false)
	m.OnFork(1, 2)
	m.OnExit(2)
	m.AddThread(1)
	for _, s := range []*stub{a, b} {
		if s.shared != 1 || s.accs != 1 || s.threads != 1 {
			t.Errorf("%s: events not fanned out: %+v", s.name, s)
		}
		if !reflect.DeepEqual(s.events, []string{"fork", "exit"}) {
			t.Errorf("%s: sync events = %v", s.name, s.events)
		}
	}
	f := m.Report()
	if f.Len() != 2 {
		t.Errorf("mux findings Len = %d", f.Len())
	}
	joined := strings.Join(f.Strings(), "\n")
	if !strings.Contains(joined, "alpha: alpha-finding") || !strings.Contains(joined, "beta: beta-finding") {
		t.Errorf("mux findings strings = %q", joined)
	}
	if !strings.Contains(f.Summary(), "alpha{alpha-summary}") {
		t.Errorf("mux summary = %q", f.Summary())
	}
}
