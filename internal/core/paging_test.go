package core

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/workload"
)

// pagingSpec is a small workload with private, shared, racy and mixed
// accesses — enough to drive every sharing-detector path.
func pagingSpec(threads int) workload.Spec {
	return workload.Spec{
		Name: "paging", Threads: threads, Iters: 40,
		AluOps: 2, PrivateOps: 4, PrivatePages: 2,
		SharedOps: 2, SharedPeriod: 2, Locks: 2,
		MixedOps: 1, MixedPeriod: 4,
		RacyOps: 2, RacyPeriod: 8,
	}
}

// TestPagingModesAgree runs the identical workload under shadow and nested
// paging and requires bit-identical analysis results: same races, same
// sharing statistics, same instrumentation set. Only the cycle costs may
// differ — the paging mode is a mechanism, not a policy.
func TestPagingModesAgree(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	run := func(paging hypervisor.PagingMode) *Result {
		cfg := DefaultConfig(ModeAikidoFastTrack)
		cfg.Aikido.Paging = paging
		r, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shadow := run(hypervisor.ShadowPaging)
	nested := run(hypervisor.NestedPaging)

	if shadow.SD != nested.SD {
		t.Errorf("sharing counters diverge:\nshadow: %+v\nnested: %+v", shadow.SD, nested.SD)
	}
	if len(racesOf(shadow)) != len(racesOf(nested)) {
		t.Errorf("race counts diverge: shadow %d, nested %d",
			len(racesOf(shadow)), len(racesOf(nested)))
	}
	if ftOf(shadow) != ftOf(nested) {
		t.Errorf("FastTrack work diverges:\nshadow: %+v\nnested: %+v", ftOf(shadow), ftOf(nested))
	}
	if shadow.Engine.MemRefs != nested.Engine.MemRefs {
		t.Errorf("retired memory refs diverge: %d vs %d",
			shadow.Engine.MemRefs, nested.Engine.MemRefs)
	}
	if shadow.Console != nested.Console || shadow.ExitCode != nested.ExitCode {
		t.Error("guest-visible behaviour diverges across paging modes")
	}
	if shadow.Cycles == nested.Cycles {
		t.Log("note: paging modes happened to cost the same (not an error)")
	}
}

// TestNestedPagingTradeoffVisible checks the cost structure: nested paging
// must not trap guest page-table updates, and must charge pricier
// translation fills.
func TestNestedPagingTradeoffVisible(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Aikido.Paging = hypervisor.NestedPaging
	s, err := NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.HV.GuestPTUpdates != 0 {
		t.Errorf("nested paging trapped %d guest PT updates", r.HV.GuestPTUpdates)
	}
	if r.HV.ShadowFills == 0 {
		t.Error("no translation fills recorded")
	}
}

// TestSwitchInterceptionInvariant runs the workload under all three
// context-switch interception mechanisms: analysis results must be
// identical, and only the transparent mechanisms may claim to support
// unmodified guests.
func TestSwitchInterceptionInvariant(t *testing.T) {
	prog, err := workload.Build(pagingSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	for _, sw := range []hypervisor.SwitchInterception{
		hypervisor.SwitchHypercall, hypervisor.SwitchSegTrap, hypervisor.SwitchProbe,
	} {
		cfg := DefaultConfig(ModeAikidoFastTrack)
		cfg.Aikido.Switch = sw
		r, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = r
			continue
		}
		if r.SD != base.SD || len(racesOf(r)) != len(racesOf(base)) {
			t.Errorf("switch mechanism %v changes analysis results", sw)
		}
	}
}
