package provider

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// op is one step of a random protection/access script.
type op struct {
	// Kind: 0 protect, 1 unprotect-for-thread, 2 clear, 3 load, 4 store,
	// 5 switch, 6 rearm (owner TID, or no owner when Off is odd),
	// 7 protect-range, 8 clear-range (1–3 pages, within the data pages).
	Kind uint8
	TID  uint8
	Page uint8
	Off  uint16
}

// enforcementOutcome runs a script against one provider and returns the
// observable decision trace: for each access, whether it succeeded and (for
// provider faults) the faulting address.
func enforcementOutcome(t *testing.T, kind Kind, nested bool, script []op) []uint64 {
	t.Helper()
	b := isa.NewBuilder("difftest")
	b.GlobalArray(8 * 512) // 8 data pages
	b.Nop().Halt()
	p, err := guest.NewProcess(vm.NewMachine(), b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	clock := &stats.Clock{}
	var prov Interface
	switch kind {
	case DOS:
		prov = NewDOS(p, clock)
	case Dthreads:
		prov = NewDthreads(p, clock)
	default:
		var hv *hypervisor.Hypervisor
		if nested {
			hv = hypervisor.NewNested(p.M, p.PT, clock)
		} else {
			hv = hypervisor.New(p.M, p.PT, clock)
		}
		prov = NewAikidoVM(p, hv, clock)
	}

	baseVpn := vm.PageNum(isa.DataBase)
	var trace []uint64
	for _, o := range script {
		tid := guest.TID(o.TID%4 + 1)
		vpn := baseVpn + uint64(o.Page%8)
		addr := (vpn << 12) + uint64(o.Off%(4096-8))
		pages := min(1+int(o.Off%3), 8-int(o.Page%8))
		switch o.Kind % 9 {
		case 0:
			prov.ProtectPage(vpn)
		case 1:
			prov.UnprotectForThread(tid, vpn)
		case 2:
			prov.ClearPage(vpn)
		case 3:
			v, fault := prov.Load(tid, addr, 8, true)
			if fault != nil {
				fa, ours := prov.FaultInfo(fault)
				if !ours {
					t.Fatalf("%v: genuine fault on mapped page: %v", kind, fault)
				}
				trace = append(trace, 1, fa)
			} else {
				trace = append(trace, 0, v)
			}
		case 4:
			fault := prov.Store(tid, addr, 8, uint64(o.Off)+1, true)
			if fault != nil {
				fa, ours := prov.FaultInfo(fault)
				if !ours {
					t.Fatalf("%v: genuine fault on mapped page: %v", kind, fault)
				}
				trace = append(trace, 3, fa)
			} else {
				trace = append(trace, 2)
			}
		case 5:
			prov.ContextSwitch(guest.TID(o.Page%4+1), tid)
		case 6:
			owner := tid
			if o.Off%2 == 1 {
				owner = guest.NoTID
			}
			prov.RearmPage(vpn, owner)
		case 7:
			prov.ProtectRange(vpn, pages)
		case 8:
			prov.ClearRange(vpn, pages)
		}
	}
	return trace
}

// TestEnforcementEquivalence: for random scripts, the AikidoVM provider
// (under both paging modes), the dOS provider and the DTHREADS provider
// make identical allow/deny decisions with identical observable values —
// the semantic core of the provider abstraction.
func TestEnforcementEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260612))
	gen := func() []op {
		n := 40 + rng.Intn(80)
		s := make([]op, n)
		for i := range s {
			s[i] = op{
				Kind: uint8(rng.Intn(9)),
				TID:  uint8(rng.Intn(4)),
				Page: uint8(rng.Intn(8)),
				Off:  uint16(rng.Intn(4096)),
			}
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		script := gen()
		ref := enforcementOutcome(t, AikidoVM, false, script)
		for _, alt := range []struct {
			name   string
			kind   Kind
			nested bool
		}{
			{"aikidovm-nested", AikidoVM, true},
			{"dos", DOS, false},
			{"dthreads", Dthreads, false},
		} {
			got := enforcementOutcome(t, alt.kind, alt.nested, script)
			if len(got) != len(ref) {
				t.Fatalf("trial %d: %s trace length %d vs %d", trial, alt.name, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d: %s diverges at step %d: %d vs %d\nscript: %+v",
						trial, alt.name, i, got[i], ref[i], script)
				}
			}
		}
	}
}

// TestProtectionIdempotence (quick): protecting a page twice behaves like
// protecting it once, for every provider.
func TestProtectionIdempotence(t *testing.T) {
	f := func(page uint8, tid uint8, repeat uint8) bool {
		for _, kind := range allKinds {
			_, prov, _ := fixture(t, kind)
			vpn := vm.PageNum(isa.DataBase) + uint64(page%2)
			n := int(repeat%3) + 1
			for i := 0; i < n; i++ {
				prov.ProtectPage(vpn)
			}
			if _, fault := prov.Load(guest.TID(tid%4+1), vpn<<12, 8, true); fault == nil {
				return false
			}
			prov.UnprotectForThread(guest.TID(tid%4+1), vpn)
			if _, fault := prov.Load(guest.TID(tid%4+1), vpn<<12, 8, true); fault != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
