// Package faultinject is the deterministic chaos harness behind the
// -chaos flags: a Plan names faults — panics, errors, simulated stalls —
// to inject at well-defined seams of the Aikido stack, each triggered on
// an exact crossing count of its seam, so an injected fault lands at the
// same point of the same cell on every run, at any worker count.
//
// Determinism is the whole design. Each System builds one Injector from
// the shared (immutable) Plan; seams fire sequentially within a run, so
// the per-seam crossing counters are deterministic, and a rule either
// fires at its configured crossing or — when the workload never reaches
// that count — not at all. Nothing here reads wall-clock time or a
// global RNG: the "seeded" half of the harness is a pure splitmix64
// derivation that resolves omitted trigger counts at parse time, so the
// Plan a run executes is always fully explicit (Plan.String prints the
// resolved form).
//
// The seams, and what each kind of fault does there, are wired by
// internal/core (see its chaos.go):
//
//	provider — Provider.RearmPage, the epoch re-privatization primitive.
//	           Faults here are absorbed by the sharing detector's
//	           degradation path (the page stays Shared, demotion is
//	           disabled for it) and never abort the run.
//	guest    — the engine's per-quantum check. Errors abort the run with
//	           this package's typed Fault; panics unwind to the runner's
//	           containment.
//	drain    — the vectorized dispatch pipeline's ring drain. Errors
//	           degrade the pipeline to inline delivery for the rest of
//	           the run; panics unwind to containment.
//	analysis — every analysis-bound access event (the outermost dispatch
//	           wrapper).
//	reconcile — the phased dispatch pipeline's split-phase reconciliation
//	           merge (fires only when banked deltas are pending). Errors
//	           degrade: the already-merged batch replays inline in seq
//	           order and the run latches inline delivery — no banked
//	           record is lost or duplicated; panics unwind to
//	           containment.
//
// Seams without an error return (provider, analysis) escalate error-kind
// faults to panics; the recovered value is still a typed *Fault, so the
// runner's classification and errors.As both see through it.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
)

// Seam names an injection point in the stack.
type Seam uint8

// Injection seams.
const (
	// SeamProvider fires on Provider.RearmPage calls.
	SeamProvider Seam = iota
	// SeamGuest fires once per engine scheduling quantum.
	SeamGuest
	// SeamDrain fires once per vectorized-dispatch ring drain.
	SeamDrain
	// SeamAnalysis fires once per analysis-bound access event.
	SeamAnalysis
	// SeamReconcile fires once per phased-dispatch reconciliation merge —
	// the split-phase boundary where banked per-thread deltas k-way-merge
	// back into canonical order — and only when deltas are pending.
	SeamReconcile

	numSeams
)

// String spells the seam as the plan grammar does.
func (s Seam) String() string {
	switch s {
	case SeamProvider:
		return "provider"
	case SeamGuest:
		return "guest"
	case SeamDrain:
		return "drain"
	case SeamAnalysis:
		return "analysis"
	case SeamReconcile:
		return "reconcile"
	}
	return "seam?"
}

// ParseSeam resolves a seam name.
func ParseSeam(s string) (Seam, error) {
	switch s {
	case "provider":
		return SeamProvider, nil
	case "guest":
		return SeamGuest, nil
	case "drain":
		return SeamDrain, nil
	case "analysis":
		return SeamAnalysis, nil
	case "reconcile":
		return SeamReconcile, nil
	}
	return 0, fmt.Errorf("faultinject: unknown seam %q (want provider, guest, drain, analysis or reconcile)", s)
}

// Kind is the manifestation of an injected fault.
type Kind uint8

// Fault kinds.
const (
	// KindPanic panics with a *Fault at the seam.
	KindPanic Kind = iota
	// KindError returns a *Fault from the seam (escalated to a panic at
	// seams with no error return).
	KindError
	// KindStall charges StallCycles to the simulated clock — a hung
	// operation in simulated time. A stall is not an error by itself;
	// it surfaces as a typed budget error when the run has a MaxCycles
	// budget, and as a grossly inflated cycle count otherwise.
	KindStall
)

// String spells the kind as the plan grammar does.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindStall:
		return "stall"
	}
	return "kind?"
}

// ParseKind resolves a kind name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return KindPanic, nil
	case "error":
		return KindError, nil
	case "stall":
		return KindStall, nil
	}
	return 0, fmt.Errorf("faultinject: unknown fault kind %q (want panic, error or stall)", s)
}

// StallCycles is the simulated-cycle charge of one injected stall: large
// enough that any realistic MaxCycles budget trips at the next quantum
// check, small enough that a few stalls cannot overflow the clock.
const StallCycles = 1 << 34

// Fault is the typed error every injected fault surfaces as — returned
// from error seams, panicked (and recovered into runner.CellError) from
// the others. errors.As against *Fault identifies injected faults
// through any wrapping.
type Fault struct {
	Seam Seam
	Kind Kind
	// Count is the seam crossing at which the fault fired (1-based).
	Count uint64
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s injected at %s seam (crossing %d)", f.Kind, f.Seam, f.Count)
}

// Rule is one fault to inject: Kind at the Count-th crossing of Seam.
type Rule struct {
	Seam  Seam
	Kind  Kind
	Count uint64 // 1-based crossing; always resolved (ParsePlan derives omitted counts)
}

// String renders the rule in plan grammar.
func (r Rule) String() string {
	return fmt.Sprintf("%s:%s@%d", r.Kind, r.Seam, r.Count)
}

// Plan is a parsed, immutable chaos plan: the seed it was derived under
// and the fully resolved rules. One Plan is shared by every cell of a
// sweep; per-run trigger state lives in the Injector.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// derivedCountRange bounds seed-derived trigger counts. Small counts
// keep derived rules likely to actually fire on short workloads.
const derivedCountRange = 64

// splitmix64 is the standard splitmix64 mixing function — the pure,
// allocation-free PRNG step behind seed-derived trigger counts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ParsePlan parses the -chaos grammar:
//
//	[seed=N;]KIND:SEAM[@COUNT][;KIND:SEAM[@COUNT]...]
//
// KIND is panic, error or stall; SEAM is provider, guest, drain,
// analysis or reconcile; COUNT is the 1-based seam crossing to fire on.
// Empty elements (doubled, leading or trailing ';') are skipped and take
// no position. A rule with no @COUNT gets a deterministic count derived
// from the seed and the rule's position via splitmix64, so
// "seed=7;panic:analysis" names one exact fault without spelling the
// crossing. The empty string is the empty plan (nil, nil): no injection,
// byte-identical behaviour.
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var elems []string
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part != "" {
			elems = append(elems, part)
		}
	}
	p := &Plan{}
	for i, part := range elems {
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			if i != 0 {
				return nil, fmt.Errorf("faultinject: seed= must be the first plan element, got %q at position %d", part, i)
			}
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		kindStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad rule %q (want KIND:SEAM[@COUNT])", part)
		}
		kind, err := ParseKind(strings.TrimSpace(kindStr))
		if err != nil {
			return nil, err
		}
		seamStr, countStr, hasCount := strings.Cut(rest, "@")
		seam, err := ParseSeam(strings.TrimSpace(seamStr))
		if err != nil {
			return nil, err
		}
		r := Rule{Seam: seam, Kind: kind}
		if hasCount {
			n, err := strconv.ParseUint(strings.TrimSpace(countStr), 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinject: bad crossing count %q in %q (want a positive integer)", countStr, part)
			}
			r.Count = n
		} else {
			r.Count = 1 + splitmix64(p.Seed+uint64(len(p.Rules)))%derivedCountRange
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("faultinject: plan %q names no rules", s)
	}
	return p, nil
}

// Empty reports whether the plan injects nothing. Nil-safe.
func (p *Plan) Empty() bool { return p == nil || len(p.Rules) == 0 }

// String renders the plan in canonical grammar with every count
// resolved; ParsePlan(p.String()) reproduces p exactly.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, r := range p.Rules {
		b.WriteByte(';')
		b.WriteString(r.String())
	}
	return b.String()
}

// trigger is one rule's per-run state: each rule fires at most once.
type trigger struct {
	kind  Kind
	at    uint64
	fired bool
}

// Injector holds one run's injection state: per-seam crossing counters
// and one-shot triggers. Build one per System (never share across cells
// — the counters are the determinism anchor). Not safe for concurrent
// use; a System's seams all fire from its single simulation goroutine.
type Injector struct {
	charge   func(uint64) // simulated-clock charge hook for stalls
	counts   [numSeams]uint64
	triggers [numSeams][]trigger
}

// NewInjector builds a fresh Injector over the plan. charge receives
// StallCycles for each stall-kind fault (the System wires its simulated
// clock; nil drops stall charges). Returns nil for an empty plan, so a
// nil check is the whole "is chaos on" test. Nil-safe on p.
func (p *Plan) NewInjector(charge func(uint64)) *Injector {
	if p.Empty() {
		return nil
	}
	in := &Injector{charge: charge}
	for _, r := range p.Rules {
		in.triggers[r.Seam] = append(in.triggers[r.Seam], trigger{kind: r.Kind, at: r.Count})
	}
	return in
}

// Fire records one crossing of seam and manifests any rule armed for
// that crossing: panic kind panics with a *Fault, error kind returns
// it, stall kind charges StallCycles and continues. Each rule fires at
// most once. Nil-safe (a nil Injector never injects).
func (in *Injector) Fire(seam Seam) error {
	if in == nil {
		return nil
	}
	in.counts[seam]++
	n := in.counts[seam]
	for i := range in.triggers[seam] {
		t := &in.triggers[seam][i]
		if t.fired || t.at != n {
			continue
		}
		t.fired = true
		f := &Fault{Seam: seam, Kind: t.kind, Count: n}
		switch t.kind {
		case KindPanic:
			panic(f)
		case KindStall:
			if in.charge != nil {
				in.charge(StallCycles)
			}
		default: // KindError
			return f
		}
	}
	return nil
}

// Crossings reports how many times seam has fired so far (tests).
func (in *Injector) Crossings(seam Seam) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[seam]
}
