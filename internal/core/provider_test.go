package core

import (
	"fmt"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/provider"
	"repro/internal/workload"
)

// providerSetting is one provider × paging × switch combination of an
// Aikido config.
type providerSetting struct {
	kind   provider.Kind
	paging hypervisor.PagingMode
	sw     hypervisor.SwitchInterception
}

func (p providerSetting) String() string {
	return fmt.Sprintf("%v/%v/%v", p.kind, p.paging, p.sw)
}

// config is the default Aikido config with p's provider settings.
func (p providerSetting) config() Config {
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Aikido.Provider, cfg.Aikido.Paging, cfg.Aikido.Switch = p.kind, p.paging, p.sw
	return cfg
}

// takesEffect reports whether every part of p runs: AikidoVM reads its
// paging mode and switch interception (§3.2.2, §3.2.3), while dOS and
// DTHREADS read neither, so only their defaults take effect.
func (p providerSetting) takesEffect() bool {
	return p.kind == provider.AikidoVM ||
		p.paging == hypervisor.ShadowPaging && p.sw == hypervisor.SwitchHypercall
}

// providerSettings enumerates all 18 combinations, starting with the
// default, AikidoVM with shadow paging and the kernel hypercall.
func providerSettings() []providerSetting {
	var out []providerSetting
	for _, kind := range []provider.Kind{provider.AikidoVM, provider.DOS, provider.Dthreads} {
		for _, paging := range []hypervisor.PagingMode{hypervisor.ShadowPaging, hypervisor.NestedPaging} {
			for _, sw := range []hypervisor.SwitchInterception{
				hypervisor.SwitchHypercall, hypervisor.SwitchSegTrap, hypervisor.SwitchProbe,
			} {
				out = append(out, providerSetting{kind, paging, sw})
			}
		}
	}
	return out
}

// TestProvidersAgree runs one workload under each of the eight provider
// settings that take effect — AikidoVM under both paging modes (§3.2.2)
// and all three context-switch interceptions (§3.2.3), plus the dOS and
// DTHREADS providers (§7.1) — and requires what the analysis and the guest
// see to equal the default setting's: sharing counters, races, FastTrack
// work, console, exit code and retired memory refs. The provider, its
// paging and its interception are mechanisms; only the cycle costs may
// differ.
func TestProvidersAgree(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, set := range providerSettings() {
		if !set.takesEffect() {
			continue
		}
		r, err := Run(prog, set.config())
		if err != nil {
			t.Fatalf("%v: %v", set, err)
		}
		if base == nil {
			base = r
			continue
		}
		if r.SD != base.SD {
			t.Errorf("%v sharing counters diverge:\n%+v\nvs default:\n%+v", set, r.SD, base.SD)
		}
		if len(racesOf(r)) != len(racesOf(base)) {
			t.Errorf("%v races = %d, default = %d", set, len(racesOf(r)), len(racesOf(base)))
		}
		if ftOf(r) != ftOf(base) {
			t.Errorf("%v FastTrack work diverges:\n%+v\nvs default:\n%+v", set, ftOf(r), ftOf(base))
		}
		if r.Console != base.Console || r.ExitCode != base.ExitCode {
			t.Errorf("%v guest-visible behaviour diverges", set)
		}
		if r.Engine.MemRefs != base.Engine.MemRefs {
			t.Errorf("%v retired mem refs = %d, default = %d", set, r.Engine.MemRefs, base.Engine.MemRefs)
		}
	}
}

// TestProviderOverheadsDiffer: the providers must also *disagree* — on cost
// structure. The DTHREADS fork tax must show at thread creation, and the
// provider stats must be populated.
func TestProviderOverheadsDiffer(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[provider.Kind]uint64{}
	for _, kind := range []provider.Kind{provider.AikidoVM, provider.DOS, provider.Dthreads} {
		r, err := Run(prog, providerSetting{kind: kind}.config())
		if err != nil {
			t.Fatal(err)
		}
		cycles[kind] = r.Cycles
		if r.Prov.ProtOps == 0 || r.Prov.RangeOps == 0 {
			t.Errorf("%v: protection ops not counted: %+v", kind, r.Prov)
		}
		if r.Prov.ThreadSetups == 0 {
			t.Errorf("%v: thread setups not counted", kind)
		}
		if r.Prov.Faults == 0 {
			t.Errorf("%v: provider faults not counted", kind)
		}
	}
	if cycles[provider.AikidoVM] == cycles[provider.DOS] ||
		cycles[provider.DOS] == cycles[provider.Dthreads] {
		t.Errorf("providers cost identically — the ablation would be vacuous: %v", cycles)
	}
	// The hypervisor pays for transparency: dOS (a patched kernel doing
	// the same thing natively) must be cheaper on this workload.
	if cycles[provider.DOS] >= cycles[provider.AikidoVM] {
		t.Errorf("dOS (%d cycles) should undercut AikidoVM (%d cycles)",
			cycles[provider.DOS], cycles[provider.AikidoVM])
	}
}
