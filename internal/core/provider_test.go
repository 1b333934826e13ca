package core

import (
	"fmt"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/workload"
)

// providerSetting is one paging × switch combination of AikidoVM in an
// Aikido config.
type providerSetting struct {
	paging hypervisor.PagingMode
	sw     hypervisor.SwitchInterception
}

func (p providerSetting) String() string {
	return fmt.Sprintf("%v/%v", p.paging, p.sw)
}

// config is the default Aikido config with p's provider settings.
func (p providerSetting) config() Config {
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Aikido.Paging, cfg.Aikido.Switch = p.paging, p.sw
	return cfg
}

// providerSettings enumerates all 6 combinations, starting with the
// default, shadow paging and the kernel hypercall.
func providerSettings() []providerSetting {
	var out []providerSetting
	for _, paging := range []hypervisor.PagingMode{hypervisor.ShadowPaging, hypervisor.NestedPaging} {
		for _, sw := range []hypervisor.SwitchInterception{
			hypervisor.SwitchHypercall, hypervisor.SwitchSegTrap, hypervisor.SwitchProbe,
		} {
			out = append(out, providerSetting{paging, sw})
		}
	}
	return out
}

// TestProvidersAgree runs one workload under each of the six provider
// settings — AikidoVM under both paging modes (§3.2.2) and all three
// context-switch interceptions (§3.2.3) — and requires what the analysis
// and the guest see to equal the default setting's: sharing counters,
// races, FastTrack work, console, exit code and retired memory refs. The
// paging and the interception are mechanisms; only the cycle costs may
// differ.
func TestProvidersAgree(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, set := range providerSettings() {
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
