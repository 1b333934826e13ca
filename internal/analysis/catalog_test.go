package analysis

import (
	"strings"
	"testing"
)

// TestCatalogListsAliasesAndWrappers pins the -list-analyses fix: the
// catalog must make aliases and the wrapper combinator discoverable, not
// just the canonical names.
func TestCatalogListsAliasesAndWrappers(t *testing.T) {
	var r Registry
	r.Register("fasttrack", func(Env) (Analysis, error) { return nil, nil })
	r.Register("lockset", func(Env) (Analysis, error) { return nil, nil })
	r.RegisterAlias("ft", "fasttrack")
	r.RegisterAlias("races", "fasttrack")
	r.RegisterWrapper("wrap", "fasttrack",
		func(inner Analysis, innerName string, env Env) (Analysis, error) { return inner, nil })

	got := r.Catalog()
	want := []string{
		"fasttrack (alias: ft, races)",
		"lockset",
		`wrap:<name> (wrapper; "wrap" = wrap:fasttrack)`,
	}
	if len(got) != len(want) {
		t.Fatalf("catalog: got %d lines %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDefaultCatalogCoversRegistry checks the live registry's catalog:
// every canonical name appears, and the known aliases ride along.
func TestDefaultCatalogCoversRegistry(t *testing.T) {
	catalog := strings.Join(Catalog(), "\n")
	for _, name := range Names() {
		if !strings.Contains(catalog, name) {
			t.Errorf("catalog misses %q", name)
		}
	}
}
