package hypervisor

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/isa"
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

// dataPages is the number of data pages a script addresses.
const dataPages = 8

// refModel is the reference semantics of per-thread page protection,
// with no caches: per page, whether threads without an override are
// denied (the default, which threads created later inherit), and the
// threads whose override grants them full access. A page with no entry is
// unprotected. Loaded values come from byte memory.
type refModel struct {
	denied  map[uint64]bool
	granted map[uint64]map[guest.TID]bool
	mem     map[uint64]byte
}

func newRefModel() *refModel {
	return &refModel{
		denied:  make(map[uint64]bool),
		granted: make(map[uint64]map[guest.TID]bool),
		mem:     make(map[uint64]byte),
	}
}

// protect denies vpn to every thread and drops its overrides.
func (m *refModel) protect(vpn uint64) {
	m.denied[vpn] = true
	delete(m.granted, vpn)
}

// unprotect grants tid full access to vpn; other threads keep the default.
func (m *refModel) unprotect(tid guest.TID, vpn uint64) {
	if m.granted[vpn] == nil {
		m.granted[vpn] = make(map[guest.TID]bool)
	}
	m.granted[vpn][tid] = true
}

// clear removes every protection from vpn.
func (m *refModel) clear(vpn uint64) {
	delete(m.denied, vpn)
	delete(m.granted, vpn)
}

// rearm protects vpn and, when owner is a real TID, grants owner alone.
func (m *refModel) rearm(vpn uint64, owner guest.TID) {
	m.protect(vpn)
	if owner != guest.NoTID {
		m.unprotect(owner, vpn)
	}
}

func (m *refModel) allowed(tid guest.TID, vpn uint64) bool {
	return !m.denied[vpn] || m.granted[vpn][tid]
}

func (m *refModel) load(addr uint64) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = m.mem[addr+uint64(i)]
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (m *refModel) store(addr, val uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	for i, c := range b {
		m.mem[addr+uint64(i)] = c
	}
}

// decoded is one script step in guest terms.
type decoded struct {
	kind  uint8
	tid   guest.TID
	vpn   uint64
	addr  uint64
	pages int
	owner guest.TID
	val   uint64
}

func decode(o op) decoded {
	d := decoded{kind: o.Kind % 9, tid: guest.TID(o.TID%4 + 1)}
	page := uint64(o.Page % dataPages)
	d.vpn = vm.PageNum(isa.DataBase) + page
	d.addr = d.vpn<<12 + uint64(o.Off%(vm.PageSize-8))
	d.pages = min(1+int(o.Off%3), dataPages-int(page))
	d.owner = d.tid
	if o.Off%2 == 1 {
		d.owner = guest.NoTID
	}
	d.val = uint64(o.Off) + 1
	return d
}

// Trace records: a load that succeeded (value follows), a load that
// faulted (true address follows), a store that succeeded, a store that
// faulted (true address follows).
const (
	traceLoad uint64 = iota
	traceLoadFault
	traceStore
	traceStoreFault
)

// modelOutcome runs a script against the reference model.
func modelOutcome(script []op) []uint64 {
	m := newRefModel()
	var trace []uint64
	for _, o := range script {
		d := decode(o)
		switch d.kind {
		case 0:
			m.protect(d.vpn)
		case 1:
			m.unprotect(d.tid, d.vpn)
		case 2:
			m.clear(d.vpn)
		case 3:
			if m.allowed(d.tid, d.vpn) {
				trace = append(trace, traceLoad, m.load(d.addr))
			} else {
				trace = append(trace, traceLoadFault, d.addr)
			}
		case 4:
			if m.allowed(d.tid, d.vpn) {
				m.store(d.addr, d.val)
				trace = append(trace, traceStore)
			} else {
				trace = append(trace, traceStoreFault, d.addr)
			}
		case 6:
			m.rearm(d.vpn, d.owner)
		case 7:
			for i := 0; i < d.pages; i++ {
				m.protect(d.vpn + uint64(i))
			}
		case 8:
			for i := 0; i < d.pages; i++ {
				m.clear(d.vpn + uint64(i))
			}
		}
	}
	return trace
}

// enforcementOutcome runs a script against AikidoVM: protection through
// AikidoLib, user accesses through the hypervisor as the engine makes
// them, and faults classified by AikidoLib.
func enforcementOutcome(t *testing.T, script []op) []uint64 {
	t.Helper()
	_, hv, lib := libFixture(t, dataPages)
	var trace []uint64
	faulted := func(rec uint64, fault *Fault) {
		t.Helper()
		fa, ours := lib.FaultInfo(fault)
		if !ours {
			t.Fatalf("genuine fault on mapped page: %v", fault)
		}
		trace = append(trace, rec, fa)
	}
	for _, o := range script {
		d := decode(o)
		switch d.kind {
		case 0:
			lib.RearmPage(d.vpn, guest.NoTID)
		case 1:
			lib.UnprotectForThread(d.tid, d.vpn)
		case 2:
			lib.ClearRange(d.vpn, 1)
		case 3:
			if v, fault := hv.Load(d.tid, d.addr, 8, true); fault != nil {
				faulted(traceLoadFault, fault)
			} else {
				trace = append(trace, traceLoad, v)
			}
		case 4:
			if fault := hv.Store(d.tid, d.addr, 8, d.val, true); fault != nil {
				faulted(traceStoreFault, fault)
			} else {
				trace = append(trace, traceStore)
			}
		case 5:
			hv.ContextSwitch()
		case 6:
			lib.RearmPage(d.vpn, d.owner)
		case 7:
			lib.ProtectRange(d.vpn, d.pages)
		case 8:
			lib.ClearRange(d.vpn, d.pages)
		}
	}
	return trace
}

// TestEnforcementEquivalence: for random scripts, AikidoVM makes the
// reference model's allow/deny decisions with its loaded values and true
// fault addresses. The model has none of
// AikidoVM's caches (host TLB, shadow tables, protection-row versions), so
// a stale cached permission shows as a divergence.
func TestEnforcementEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260612))
	gen := func() []op {
		n := 40 + rng.Intn(80)
		s := make([]op, n)
		for i := range s {
			s[i] = op{
				Kind: uint8(rng.Intn(9)),
				TID:  uint8(rng.Intn(4)),
				Page: uint8(rng.Intn(dataPages)),
				Off:  uint16(rng.Intn(vm.PageSize)),
			}
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		script := gen()
		want := modelOutcome(script)
		got := enforcementOutcome(t, script)
		if len(got) != len(want) {
			t.Fatalf("trial %d: trace length %d, model %d\nscript: %+v",
				trial, len(got), len(want), script)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: diverges from the model at trace word %d: %d vs %d\nscript: %+v",
					trial, i, got[i], want[i], script)
			}
		}
	}
}

// TestProtectionIdempotence (quick): protecting a page twice behaves like
// protecting it once.
func TestProtectionIdempotence(t *testing.T) {
	f := func(page uint8, tid uint8, repeat uint8) bool {
		_, hv, lib := libFixture(t, 2)
		vpn := vm.PageNum(isa.DataBase) + uint64(page%2)
		n := int(repeat%3) + 1
		for i := 0; i < n; i++ {
			lib.RearmPage(vpn, guest.NoTID)
		}
		if _, fault := hv.Load(guest.TID(tid%4+1), vpn<<12, 8, true); fault == nil {
			return false
		}
		lib.UnprotectForThread(guest.TID(tid%4+1), vpn)
		_, fault := hv.Load(guest.TID(tid%4+1), vpn<<12, 8, true)
		return fault == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
