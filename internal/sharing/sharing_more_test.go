package sharing_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/sharing"
	"repro/internal/vm"
)

func TestPageStateStrings(t *testing.T) {
	for _, s := range []sharing.PageState{sharing.Unused, sharing.Private, sharing.Shared} {
		if s.String() == "state?" {
			t.Errorf("state %d unnamed", s)
		}
	}
	if sharing.PageState(9).String() != "state?" {
		t.Error("invalid state not flagged")
	}
}

func TestPageStateOfUnmappedAddress(t *testing.T) {
	prog, _, _, _ := build(t, false)
	s := runSD(t, prog)
	st, owner := s.SD.PageStateOf(0xdead_0000_0000)
	if st != sharing.Unused || owner != 0 {
		t.Errorf("unmapped address state = %v/%d", st, owner)
	}
}

func TestMunmapClearsProtectionState(t *testing.T) {
	// A page that was protected, went private, and is then unmapped must
	// not leave dangling Aikido protections: remapping the same address
	// range later starts fresh.
	b := isa.NewBuilder("munmapclear")
	ptr := b.GlobalU64(0)
	b.MovImm(isa.R0, vm.PageSize)
	b.MovImm(isa.R1, 0)
	b.Syscall(isa.SysMmap)
	b.StoreAbs(ptr, isa.R0)
	b.Mov(isa.R8, isa.R0)
	b.MovImm(isa.R1, 5)
	b.Store(isa.R8, 0, isa.R1) // touch: Unused -> Private(main)
	b.Mov(isa.R0, isa.R8)
	b.Syscall(isa.SysMunmap)
	b.Halt()
	prog := b.MustFinish()

	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// After munmap the page is gone from every tracking structure; the
	// run completing without spurious faults is the main assertion.
	if s.SD.C.SpuriousFaults != 0 {
		t.Errorf("spurious faults: %d", s.SD.C.SpuriousFaults)
	}
}

func TestSharedCountersConsistent(t *testing.T) {
	prog, _, _, _ := build(t, true)
	s := runSD(t, prog)
	if s.SD.InstrumentedPCs() != int(s.SD.C.InstrumentedPCs) {
		t.Error("InstrumentedPCs accessor disagrees with counters")
	}
}

func TestCodePagesProtectedButExecutable(t *testing.T) {
	// Execution streams from the code cache, so protected code pages
	// never block execution — but a data LOAD from a code page goes
	// through the sharing machinery like any other access.
	b := isa.NewBuilder("codeload")
	out := b.GlobalU64(0)
	b.LoadAbs(isa.R1, isa.CodeBase) // read own code as data
	b.StoreAbs(out, isa.R1)
	b.Halt()
	prog := b.MustFinish()
	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st, owner := s.SD.PageStateOf(isa.CodeBase)
	if st != sharing.Private || owner != 1 {
		t.Errorf("code page after data read: %v/%d, want private/1", st, owner)
	}
}

func TestRuntimePagesNeverProtected(t *testing.T) {
	// The AikidoLib fault-delivery pages are runtime memory: mapped with
	// their special guest protections and never Aikido-protected or
	// mirrored.
	prog, _, _, _ := build(t, false)
	s := runSD(t, prog)
	for _, v := range s.Process.VMAs() {
		if v.Kind != 0 && v.Name == "aikido-slot" {
			if _, fault := s.HV.Load(1, v.Base, 8, true); fault != nil {
				t.Errorf("runtime slot page faults: %v", fault)
			}
		}
		if v.Name == "aikido-fault-r" {
			if v.Prot != pagetable.ProtNone {
				t.Errorf("read-fault page prot = %v", v.Prot)
			}
		}
	}
}
