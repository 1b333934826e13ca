package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds one analysis instance in the given environment. A factory
// that needs a facility the environment lacks (a process, shadow memory)
// returns an error naming it.
type Factory func(Env) (Analysis, error)

// Wrapper builds an analysis around any registered one, selected by a
// composed name ("wrap:lockset"). innerName is the resolved registry name
// of inner, so the wrapper can label what it wraps.
type Wrapper func(inner Analysis, innerName string, env Env) (Analysis, error)

// Registry maps stable names to analysis factories. The zero value is
// ready to use; most callers use the package-level default registry that
// detector packages populate in init().
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
	wrappers  map[string]wrapperEntry
	aliases   map[string]string
}

type wrapperEntry struct {
	w            Wrapper
	defaultInner string
}

// Register adds a named factory. Registering a duplicate name panics:
// names are API, and two packages claiming one is a programming error.
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.factories == nil {
		r.factories = make(map[string]Factory)
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("analysis: duplicate registration of %q", name))
	}
	r.factories[name] = f
}

// RegisterWrapper adds a named analysis combinator. The name resolves both
// bare ("wrap" wraps defaultInner) and composed ("wrap:lockset").
func (r *Registry) RegisterWrapper(name, defaultInner string, w Wrapper) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrappers == nil {
		r.wrappers = make(map[string]wrapperEntry)
	}
	if _, dup := r.wrappers[name]; dup {
		panic(fmt.Sprintf("analysis: duplicate wrapper registration of %q", name))
	}
	r.wrappers[name] = wrapperEntry{w: w, defaultInner: defaultInner}
}

// RegisterAlias maps a short alias ("ft") to a registered name
// ("fasttrack"). Aliases resolve in New and Resolve but do not appear in
// Names.
func (r *Registry) RegisterAlias(alias, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aliases == nil {
		r.aliases = make(map[string]string)
	}
	r.aliases[alias] = name
}

// Resolve canonicalizes a requested name: aliases expand, and a bare
// wrapper name gains its default inner ("wrap" → "wrap:fasttrack").
// Unknown names resolve to themselves; New reports them.
func (r *Registry) Resolve(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resolveLocked(name)
}

func (r *Registry) resolveLocked(name string) string {
	name = strings.TrimSpace(name)
	if canon, ok := r.aliases[name]; ok {
		name = canon
	}
	if wname, inner, ok := strings.Cut(name, ":"); ok {
		if canon, aliased := r.aliases[inner]; aliased {
			inner = canon
		}
		return wname + ":" + inner
	}
	if we, ok := r.wrappers[name]; ok {
		return name + ":" + r.resolveLocked(we.defaultInner)
	}
	return name
}

// lookup resolves name (aliases and wrapper-composition syntax included)
// to its factory or, for a composed name, to its wrapper and inner name.
// It reports an unknown analysis or wrapper.
func (r *Registry) lookup(name string) (f Factory, w Wrapper, inner string, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	canon := r.resolveLocked(name)
	if wname, in, ok := strings.Cut(canon, ":"); ok {
		we, isWrap := r.wrappers[wname]
		if !isWrap {
			return nil, nil, "", fmt.Errorf("analysis: unknown wrapper %q in %q (have %s)", wname, name, strings.Join(r.names(), ", "))
		}
		return nil, we.w, in, nil
	}
	if f = r.factories[canon]; f == nil {
		return nil, nil, "", fmt.Errorf("analysis: unknown analysis %q (have %s)", name, strings.Join(r.names(), ", "))
	}
	return f, nil, "", nil
}

// New builds the analysis registered under name (aliases and
// wrapper-composition syntax included) in env.
func (r *Registry) New(name string, env Env) (Analysis, error) {
	f, w, inner, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	if w == nil {
		return f(env)
	}
	in, err := r.New(inner, env)
	if err != nil {
		return nil, err
	}
	return w(in, r.Resolve(inner), env)
}

// Check reports the first name that New would reject, or that selects an
// analysis already selected once names are canonicalized (two copies of
// one detector would double-charge the clock and report everything
// twice). It builds nothing.
func (r *Registry) Check(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		canon := r.Resolve(n)
		if seen[canon] {
			return fmt.Errorf("analysis: %q selected twice", canon)
		}
		seen[canon] = true
		if err := r.check(n); err != nil {
			return err
		}
	}
	return nil
}

// check reports why New would reject name, following New's recursion
// through wrappers.
func (r *Registry) check(name string) error {
	_, w, inner, err := r.lookup(name)
	if err == nil && w != nil {
		return r.check(inner)
	}
	return err
}

// NewAll builds one analysis per name once Check accepts the names.
func (r *Registry) NewAll(names []string, env Env) ([]Analysis, error) {
	if err := r.Check(names); err != nil {
		return nil, err
	}
	out := make([]Analysis, 0, len(names))
	for _, n := range names {
		a, err := r.New(n, env)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Names returns the registered analysis names, sorted. Wrappers appear in
// bare form ("wrap"); aliases are omitted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

func (r *Registry) names() []string {
	out := make([]string, 0, len(r.factories)+len(r.wrappers))
	for n := range r.factories {
		out = append(out, n)
	}
	for n := range r.wrappers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Catalog returns one line per registered analysis for CLI listings:
// canonical names with the aliases that resolve to them, and wrappers in
// composed form with their bare-name default spelled out. Unlike Names,
// nothing resolvable from the command line is omitted — this is what
// makes the short aliases discoverable from `aikido-run -list-analyses`.
func (r *Registry) Catalog() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Invert the alias table: canonical name -> sorted aliases.
	byName := make(map[string][]string, len(r.aliases))
	for alias, name := range r.aliases {
		byName[name] = append(byName[name], alias)
	}
	for _, as := range byName {
		sort.Strings(as)
	}
	var out []string
	for _, n := range r.names() {
		if we, isWrap := r.wrappers[n]; isWrap {
			out = append(out, fmt.Sprintf("%s:<name> (wrapper; %q = %s:%s)",
				n, n, n, r.resolveLocked(we.defaultInner)))
			continue
		}
		line := n
		if as := byName[n]; len(as) > 0 {
			line += " (alias: " + strings.Join(as, ", ") + ")"
		}
		out = append(out, line)
	}
	return out
}

// defaultRegistry is the process-wide registry detector packages populate
// in init().
var defaultRegistry Registry

// Register adds a factory to the default registry.
func Register(name string, f Factory) { defaultRegistry.Register(name, f) }

// RegisterWrapper adds a combinator to the default registry.
func RegisterWrapper(name, defaultInner string, w Wrapper) {
	defaultRegistry.RegisterWrapper(name, defaultInner, w)
}

// RegisterAlias adds an alias to the default registry.
func RegisterAlias(alias, name string) { defaultRegistry.RegisterAlias(alias, name) }

// Resolve canonicalizes a name against the default registry.
func Resolve(name string) string { return defaultRegistry.Resolve(name) }

// New builds a named analysis from the default registry.
func New(name string, env Env) (Analysis, error) { return defaultRegistry.New(name, env) }

// NewAll builds one analysis per name from the default registry.
func NewAll(names []string, env Env) ([]Analysis, error) { return defaultRegistry.NewAll(names, env) }

// Check reports the first name the default registry's NewAll would reject.
func Check(names []string) error { return defaultRegistry.Check(names) }

// Names lists the default registry.
func Names() []string { return defaultRegistry.Names() }

// Catalog lists the default registry with aliases and wrapper forms.
func Catalog() []string { return defaultRegistry.Catalog() }

// ParseList splits a comma-separated analysis list ("ft,lockset, atomicity")
// into trimmed names, dropping empties — the shape both cmds accept on
// their -analysis flags.
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
