package isa

import (
	"strings"
	"testing"
)

func TestOpClassification(t *testing.T) {
	memRefs := []Op{Load, Store, LoadAbs, StoreAbs}
	for _, op := range memRefs {
		if !op.IsMemRef() {
			t.Errorf("%v: IsMemRef = false, want true", op)
		}
	}
	nonMem := []Op{Nop, MovImm, Mov, Add, AddImm, Sub, Mul, Div, And, Or,
		Xor, Shl, Shr, Jmp, Br, BrImm, Lock, Unlock, Syscall, Halt}
	for _, op := range nonMem {
		if op.IsMemRef() {
			t.Errorf("%v: IsMemRef = true, want false", op)
		}
	}
	if !LoadAbs.IsDirect() || !StoreAbs.IsDirect() {
		t.Error("absolute ops must be direct")
	}
	if Load.IsDirect() || Store.IsDirect() {
		t.Error("register-indirect ops must not be direct")
	}
	if !Store.IsWrite() || !StoreAbs.IsWrite() || Load.IsWrite() || LoadAbs.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	for _, op := range []Op{Jmp, Br, BrImm, Halt} {
		if !op.IsBranch() {
			t.Errorf("%v: IsBranch = false, want true", op)
		}
	}
	if Add.IsBranch() || Syscall.IsBranch() {
		t.Error("Add/Syscall must not end blocks via IsBranch")
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b uint64
		want bool
	}{
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, 1, 2, true}, {LT, 2, 1, false}, {LT, 2, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 3, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
		// signed comparison: -1 < 0
		{LT, ^uint64(0), 0, true},
		{GT, 0, ^uint64(0), true},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.c, int64(c.a), int64(c.b), got, c.want)
		}
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("loop")
	b.MovImm(R1, 0)
	b.Label("head")
	b.BrImm(GE, R1, 10, "done")
	b.AddImm(R1, R1, 1)
	b.Jmp("head")
	b.Label("done")
	b.Halt()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["head"] != 1 {
		t.Errorf("head label = %d, want 1", p.Labels["head"])
	}
	br := p.At(1)
	if br.Op != BrImm || br.Target != p.Labels["done"] {
		t.Errorf("branch not resolved: %+v", br)
	}
	jmp := p.At(3)
	if jmp.Op != Jmp || jmp.Target != 1 {
		t.Errorf("jmp not resolved: %+v", jmp)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish succeeded with undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish succeeded with duplicate label")
	}
}

func TestGlobals(t *testing.T) {
	b := NewBuilder("globals")
	a := b.Global(3, 1)
	if a != DataBase {
		t.Errorf("first global at %#x, want %#x", a, DataBase)
	}
	v := b.GlobalU64(0xdeadbeef)
	if v%8 != 0 {
		t.Errorf("GlobalU64 not 8-aligned: %#x", v)
	}
	arr := b.GlobalArray(4)
	if arr%8 != 0 || arr <= v {
		t.Errorf("array misplaced: %#x", arr)
	}
	b.Halt()
	p := b.MustFinish()
	off := v - DataBase
	got := uint64(p.Data[off]) | uint64(p.Data[off+1])<<8 |
		uint64(p.Data[off+2])<<16 | uint64(p.Data[off+3])<<24
	if got != 0xdeadbeef {
		t.Errorf("GlobalU64 image = %#x, want 0xdeadbeef", got)
	}
}

func TestProgramValid(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Valid(); err == nil {
		t.Error("empty program must be invalid")
	}
	p = &Program{Name: "badtgt", Code: []Instr{{Op: Jmp, Target: 99}}}
	if err := p.Valid(); err == nil {
		t.Error("out-of-range branch must be invalid")
	}
	p = &Program{Name: "badsize", Code: []Instr{{Op: Load, Size: 3}, {Op: Halt}}}
	if err := p.Valid(); err == nil {
		t.Error("bad access size must be invalid")
	}
}

// TestAddrPCRoundTrip: AddrOf gives each instruction its own
// InstrBytes-wide slot inside the code segment, so the slot's offset
// maps back to the PC, and one past the last PC is the segment's end.
func TestAddrPCRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	for i := 0; i < 100; i++ {
		b.Nop()
	}
	b.Halt()
	p := b.MustFinish()
	end := CodeBase + p.CodeBytes()
	for pc := PC(0); pc < PC(len(p.Code)); pc += 7 {
		a := p.AddrOf(pc)
		if a < CodeBase || a >= end || (a-CodeBase)%InstrBytes != 0 || PC((a-CodeBase)/InstrBytes) != pc {
			t.Fatalf("pc %d maps to %#x, not its slot in the code segment [%#x, %#x)", pc, a, CodeBase, end)
		}
	}
	if a := p.AddrOf(PC(len(p.Code))); a != end {
		t.Errorf("one past the last pc maps to %#x, want the segment end %#x", a, end)
	}
}

func TestLoopNExecutesViaDisasm(t *testing.T) {
	b := NewBuilder("loopn")
	b.LoopN(R2, 5, func(b *Builder) { b.Nop() })
	b.Halt()
	p := b.MustFinish()
	d := p.Disassemble()
	if !strings.Contains(d, "bri.ge") || !strings.Contains(d, "jmp") {
		t.Errorf("LoopN structure missing from disassembly:\n%s", d)
	}
}

func TestThreadCreateFixupPatchesEntryPC(t *testing.T) {
	b := NewBuilder("tc")
	b.MovImm(R5, 42)
	b.ThreadCreate("worker", R5)
	b.Halt()
	b.Label("worker")
	b.Halt()
	p := b.MustFinish()
	mov := p.At(1) // first instr of ThreadCreate
	if mov.Op != MovImm || mov.Imm != int64(p.Labels["worker"]) {
		t.Errorf("entry PC not patched: %+v want %d", mov, p.Labels["worker"])
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MovImm, Rd: R1, Imm: 7}, "movi r1, 7"},
		{Instr{Op: Load, Rd: R2, Rs: R3, Imm: 16, Size: 8}, "ld8 r2, [r3+16]"},
		{Instr{Op: StoreAbs, Imm: 0x1000, Rt: R4, Size: 4}, "sta4 [0x1000], r4"},
		{Instr{Op: Br, Cond: NE, Rs: R1, Rt: R2, Target: 9}, "br.ne r1, r2, 9"},
		{Instr{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
