package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

func TestProtAllows(t *testing.T) {
	cases := []struct {
		p    Prot
		a    Access
		user bool
		want bool
	}{
		{ProtRW, AccessRead, true, true},
		{ProtRW, AccessWrite, true, true},
		{ProtRO, AccessRead, true, true},
		{ProtRO, AccessWrite, true, false},
		{ProtNone, AccessRead, true, false},
		{ProtNone, AccessWrite, false, false},
		// Kernel-only page (USER cleared): kernel may access, user may not.
		// This is the AikidoVM §3.2.6 trick.
		{ProtRead | ProtWrite, AccessRead, true, false},
		{ProtRead | ProtWrite, AccessRead, false, true},
		{ProtRead | ProtWrite, AccessWrite, false, true},
	}
	for _, c := range cases {
		if got := c.p.Allows(c.a, c.user); got != c.want {
			t.Errorf("%s.Allows(%s, user=%v) = %v, want %v", c.p, c.a, c.user, got, c.want)
		}
	}
}

func TestMapWalkUnmap(t *testing.T) {
	m := vm.NewMachine()
	pt := New()
	f := m.AllocFrames(1)
	pt.Map(5, f, ProtRW)

	pte, fault := pt.Walk(5*vm.PageSize+100, AccessWrite, true)
	if fault != nil {
		t.Fatalf("unexpected fault: %v", fault)
	}
	if pte.Frame != f {
		t.Errorf("frame = %d, want %d", pte.Frame, f)
	}

	if _, fault := pt.Walk(6*vm.PageSize, AccessRead, true); fault == nil || !fault.Unmapped {
		t.Error("walk of unmapped page must fault with Unmapped")
	}

	pt.SetProt(5, ProtRO)
	if _, fault := pt.Walk(5*vm.PageSize, AccessWrite, true); fault == nil || fault.Unmapped {
		t.Error("write to RO page must be a protection fault")
	}
	if _, fault := pt.Walk(5*vm.PageSize, AccessRead, true); fault != nil {
		t.Errorf("read of RO page faulted: %v", fault)
	}

	if _, ok := pt.Unmap(5); !ok {
		t.Error("unmap of mapped page failed")
	}
	if _, ok := pt.Unmap(5); ok {
		t.Error("double unmap succeeded")
	}
}

type recordingListener struct {
	events []struct {
		vpn      uint64
		old, new PTE
	}
}

func (r *recordingListener) PTEUpdated(vpn uint64, old, new PTE) {
	r.events = append(r.events, struct {
		vpn      uint64
		old, new PTE
	}{vpn, old, new})
}

func TestListenerSeesAllMutations(t *testing.T) {
	m := vm.NewMachine()
	pt := New()
	rec := &recordingListener{}
	pt.SetListener(rec)

	f := m.AllocFrames(1)
	pt.Map(9, f, ProtRW)
	pt.SetProt(9, ProtNone)
	pt.Unmap(9)

	if len(rec.events) != 3 {
		t.Fatalf("listener saw %d events, want 3", len(rec.events))
	}
	if rec.events[0].old != (PTE{}) || rec.events[0].new.Frame != f {
		t.Error("map event wrong")
	}
	if rec.events[1].new.Prot != ProtNone || rec.events[1].old.Prot != ProtRW {
		t.Error("prot event wrong")
	}
	if rec.events[2].new != (PTE{}) {
		t.Error("unmap event wrong")
	}
	if pt.Updates != 3 {
		t.Errorf("Updates = %d, want 3", pt.Updates)
	}
}

func TestSetProtUnmapped(t *testing.T) {
	pt := New()
	if pt.SetProt(1, ProtRW) {
		t.Error("SetProt of unmapped page reported success")
	}
}

func TestMapInvalidFramePanics(t *testing.T) {
	pt := New()
	defer func() {
		if recover() == nil {
			t.Error("mapping NoFrame did not panic")
		}
	}()
	pt.Map(1, vm.NoFrame, ProtRW)
}

func TestWalkFaultCarriesAddrAndAccess(t *testing.T) {
	pt := New()
	_, fault := pt.Walk(0xdead000, AccessWrite, true)
	if fault == nil {
		t.Fatal("expected fault")
	}
	if fault.Addr != 0xdead000 || fault.Access != AccessWrite {
		t.Errorf("fault = %+v", fault)
	}
	if fault.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestProtStringAndAllowsAgree(t *testing.T) {
	// Property: a protection allows a user read iff both R and U bits set;
	// a user write additionally needs W.
	prop := func(bits uint8) bool {
		p := Prot(bits & 7)
		r := p.Allows(AccessRead, true)
		w := p.Allows(AccessWrite, true)
		wantR := p&ProtRead != 0 && p&ProtUser != 0
		wantW := wantR && p&ProtWrite != 0
		return r == wantR && w == wantW
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
