package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/spbags"
	"repro/internal/workload"
)

// --- Ablation: shadow vs nested paging (§3.2.2) -----------------------------

// PagingRow compares AikidoVM's memory-virtualization strategies on one
// benchmark.
type PagingRow struct {
	Name    string
	Mode    string
	Slow    float64 // slowdown vs native
	PTTraps uint64  // trapped guest page-table updates (shadow only)
	Fills   uint64  // translation-cache fills (hidden faults / EPT walks)
	Races   int
}

// AblationPaging runs Aikido-FastTrack under shadow and nested paging. The
// analysis results must agree; the cost structure differs: nested paging
// never traps guest page-table updates but pays the two-dimensional walk on
// every translation fill (§3.2.2's "generally applicable" claim, made
// concrete).
func AblationPaging(o Options) ([]PagingRow, error) {
	o = o.normalize()
	names := []string{"vips", "canneal"}
	pagings := []hypervisor.PagingMode{hypervisor.ShadowPaging, hypervisor.NestedPaging}
	stride := 1 + len(pagings)
	var specs []runner.Spec
	for _, name := range names {
		b, err := parsec.ByName(name)
		if err != nil {
			return nil, err
		}
		bb := o.apply(b)
		specs = append(specs, cell(bb, "native", core.DefaultConfig(core.ModeNative)))
		for _, paging := range pagings {
			cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
			cfg.Aikido.Paging = paging
			specs = append(specs, cell(bb, paging.String(), cfg))
		}
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []PagingRow
	for i, name := range names {
		native := cells[i*stride].Res
		for j, paging := range pagings {
			res := cells[i*stride+1+j].Res
			rows = append(rows, PagingRow{
				Name:    name,
				Mode:    paging.String(),
				Slow:    res.Slowdown(native),
				PTTraps: res.HV.GuestPTUpdates,
				Fills:   res.HV.ShadowFills,
				Races:   len(races(res)),
			})
		}
	}
	return rows, nil
}

// WriteAblationPaging renders the paging ablation.
func WriteAblationPaging(w io.Writer, rows []PagingRow) {
	fmt.Fprintln(w, "Ablation: shadow vs nested paging (§3.2.2; identical races, different costs)")
	fmt.Fprintf(w, "%-14s %-14s %10s %10s %10s %7s\n", "benchmark", "paging", "slowdown", "PT traps", "fills", "races")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %9.2fx %10d %10d %7d\n", r.Name, r.Mode, r.Slow, r.PTTraps, r.Fills, r.Races)
	}
}

// --- Ablation: context-switch interception (§3.2.3) -------------------------

// SwitchRow compares interception mechanisms on one benchmark.
type SwitchRow struct {
	Name         string
	Mechanism    string
	Slow         float64
	UnmodifiedOS bool
}

// AblationSwitch runs Aikido-FastTrack under all three context-switch
// interception mechanisms of §3.2.3. The costs are deliberately close — the
// paper prefers the FS/GS trap for transparency, not speed.
func AblationSwitch(o Options) ([]SwitchRow, error) {
	o = o.normalize()
	b, err := parsec.ByName("streamcluster") // barrier-heavy: most switches
	if err != nil {
		return nil, err
	}
	bb := o.apply(b)
	switches := []hypervisor.SwitchInterception{
		hypervisor.SwitchHypercall, hypervisor.SwitchSegTrap, hypervisor.SwitchProbe,
	}
	specs := []runner.Spec{cell(bb, "native", core.DefaultConfig(core.ModeNative))}
	for _, sw := range switches {
		cfg := core.DefaultConfig(core.ModeAikidoFastTrack)
		cfg.Aikido.Switch = sw
		specs = append(specs, cell(bb, sw.String(), cfg))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	native := cells[0].Res
	var rows []SwitchRow
	for i, sw := range switches {
		rows = append(rows, SwitchRow{
			Name:         bb.Name,
			Mechanism:    sw.String(),
			Slow:         cells[1+i].Res.Slowdown(native),
			UnmodifiedOS: !sw.RequiresGuestModification(),
		})
	}
	return rows, nil
}

// WriteAblationSwitch renders the switch-interception ablation.
func WriteAblationSwitch(w io.Writer, rows []SwitchRow) {
	fmt.Fprintln(w, "Ablation: context-switch interception (§3.2.3)")
	fmt.Fprintf(w, "%-14s %-18s %10s %14s\n", "benchmark", "mechanism", "slowdown", "unmodified OS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %9.2fx %14v\n", r.Name, r.Mechanism, r.Slow, r.UnmodifiedOS)
	}
}

// --- Extension: Nondeterminator (SP-bags) vs FastTrack ----------------------

// NondetRow compares the determinacy detector with FastTrack on one
// fork-join program.
type NondetRow struct {
	Program        string
	SPBagsRaces    int
	FastTrackRaces int
	Note           string
}

// ExtensionNondeterminator contrasts the two detector families the paper's
// §1 and §7.3 discuss: SP-bags is schedule independent (no false negatives
// for fork-join programs) and flags lock-ordered nondeterminism; FastTrack
// reports data races for the observed schedule only.
func ExtensionNondeterminator(o Options) ([]NondetRow, error) {
	o = o.normalize()
	elems := int(64 * o.Scale)
	if elems < 16 {
		elems = 16
	}
	cases := []struct {
		label string
		spec  workload.ForkJoinSpec
		note  string
	}{
		{"race-free", workload.ForkJoinSpec{Name: "fj-clean", Elems: elems, LeafSize: 8},
			"disjoint leaves: both agree"},
		{"racy-counter", workload.ForkJoinSpec{Name: "fj-racy", Elems: elems, LeafSize: 8, RacyCounter: true},
			"unsynchronized counter: both agree"},
		{"locked-counter", workload.ForkJoinSpec{Name: "fj-locked", Elems: elems, LeafSize: 8, LockCounter: true},
			"determinacy race but no data race: only SP-bags flags it"},
	}
	var rows []NondetRow
	for _, c := range cases {
		prog, err := workload.BuildForkJoin(c.spec)
		if err != nil {
			return nil, err
		}
		sp, err := core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(spbags.Kind))
		if err != nil {
			return nil, fmt.Errorf("%s spbags: %w", c.label, err)
		}
		ft, err := core.Run(prog, core.DefaultConfig(core.ModeFastTrackFull))
		if err != nil {
			return nil, fmt.Errorf("%s fasttrack: %w", c.label, err)
		}
		rows = append(rows, NondetRow{
			Program:        c.label,
			SPBagsRaces:    sp.AnalysisFindings(spbags.Kind).Len(),
			FastTrackRaces: len(races(ft)),
			Note:           c.note,
		})
	}
	return rows, nil
}

// WriteExtensionNondeterminator renders the comparison.
func WriteExtensionNondeterminator(w io.Writer, rows []NondetRow) {
	fmt.Fprintln(w, "Extension: Nondeterminator-style SP-bags vs FastTrack on fork-join programs (§1, §7.3)")
	fmt.Fprintf(w, "%-16s %10s %12s   %s\n", "program", "SP-bags", "FastTrack", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d %12d   %s\n", r.Program, r.SPBagsRaces, r.FastTrackRaces, r.Note)
	}
}
