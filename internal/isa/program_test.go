package isa

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestValidEdgeCases is the table-driven structural-invariant suite:
// every way a Program can be malformed — no code, out-of-range entry,
// out-of-range branch targets (including code truncated after assembly),
// bad access sizes, unknown opcodes — must surface as a distinct error,
// and a well-formed program must pass.
func TestValidEdgeCases(t *testing.T) {
	halt := Instr{Op: Halt}
	cases := []struct {
		name    string
		prog    Program
		wantErr string // substring of the expected error, "" = valid
	}{
		{"ok", Program{Name: "ok", Code: []Instr{{Op: Nop}, halt}}, ""},
		{"empty", Program{Name: "empty"}, "has no code"},
		{"entry-oob", Program{Name: "e", Code: []Instr{halt}, Entry: 1}, "entry 1 out of range"},
		{"jmp-oob", Program{Name: "j", Code: []Instr{{Op: Jmp, Target: 99}, halt}},
			"branch target 99 out of range"},
		{"br-oob", Program{Name: "b", Code: []Instr{{Op: Br, Cond: EQ, Target: 5}, halt}},
			"branch target 5 out of range"},
		{"br-last-ok", Program{Name: "bl", Code: []Instr{{Op: Br, Cond: EQ, Target: 1}, halt}}, ""},
		{"bri-oob", Program{Name: "bi", Code: []Instr{{Op: BrImm, Cond: NE, Target: 7}, halt}},
			"branch target 7 out of range"},
		// A branch that was valid at assembly time becomes invalid when
		// the code is truncated afterwards — Valid must re-check, not
		// trust the builder.
		{"truncated", Program{Name: "tr",
			Code: []Instr{{Op: Jmp, Target: 2}, {Op: Nop}, halt}[:2]},
			"branch target 2 out of range"},
		{"ld-size0", Program{Name: "s0", Code: []Instr{{Op: Load, Size: 0}, halt}}, "bad access size 0"},
		{"st-size3", Program{Name: "s3", Code: []Instr{{Op: Store, Size: 3}, halt}}, "bad access size 3"},
		{"lda-size16", Program{Name: "s16", Code: []Instr{{Op: LoadAbs, Size: 16}, halt}}, "bad access size 16"},
		{"sta-size5", Program{Name: "s5", Code: []Instr{{Op: StoreAbs, Size: 5}, halt}}, "bad access size 5"},
		{"bad-op", Program{Name: "bo", Code: []Instr{{Op: numOps}, halt}}, "bad opcode"},
		{"bad-op-hi", Program{Name: "bh", Code: []Instr{{Op: Op(200)}, halt}}, "bad opcode 200"},
		// A register past the file would index out of the interpreter's
		// register array; a condition past GE would never branch.
		{"bad-rd", Program{Name: "rd", Code: []Instr{{Op: MovImm, Rd: NumRegs}, halt}}, "pc 0: bad register 16"},
		{"bad-rs", Program{Name: "rs", Code: []Instr{{Op: Nop}, {Op: Load, Size: 8, Rs: 200}, halt}}, "pc 1: bad register 200"},
		{"bad-rt", Program{Name: "rt", Code: []Instr{{Op: Store, Size: 8, Rt: 17}, halt}}, "pc 0: bad register 17"},
		{"sp-ok", Program{Name: "sp", Code: []Instr{{Op: Add, Rd: SP, Rs: TP, Rt: SP}, halt}}, ""},
		{"bad-cond", Program{Name: "bc", Code: []Instr{{Op: Br, Cond: GE + 1, Target: 1}, halt}}, "pc 0: bad condition 6"},
		{"bri-bad-cond", Program{Name: "bic", Code: []Instr{{Op: Nop}, {Op: BrImm, Cond: Cond(255), Target: 0}, halt}},
			"pc 1: bad condition 255"},
		{"ge-ok", Program{Name: "ge", Code: []Instr{{Op: BrImm, Cond: GE, Target: 1}, halt}}, ""},
		// The data image is a prefix of a data segment that ends below
		// the heap.
		{"data-ok", Program{Name: "d", Code: []Instr{halt}, Data: []byte{1}, DataSize: 1}, ""},
		{"data-sparse-ok", Program{Name: "ds", Code: []Instr{halt}, DataSize: HeapBase - DataBase}, ""},
		{"data-past-size", Program{Name: "dp", Code: []Instr{halt}, Data: []byte{1, 2}, DataSize: 1},
			"data image of 2 bytes exceeds its 1-byte data segment"},
		{"data-into-heap", Program{Name: "dh", Code: []Instr{halt}, DataSize: HeapBase - DataBase + 1},
			"runs into the heap"},
	}
	for _, tc := range cases {
		err := tc.prog.Valid()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Valid() passed, want error containing %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// roundTripProgram exercises every instruction rendering form plus
// multiple labels, including two labels on one PC.
func roundTripProgram() *Program {
	b := NewBuilder("rt")
	g := b.GlobalU64(7)
	b.Label("start")
	b.Label("alias") // second label on the same PC
	b.MovImm(R1, -42)
	b.Mov(R2, R1)
	b.Add(R3, R1, R2)
	b.AddImm(R3, R3, 5)
	b.Sub(R4, R3, R1)
	b.Mul(R5, R4, R2)
	b.Div(R6, R5, R4)
	b.And(R7, R6, R1)
	b.Or(R8, R7, R2)
	b.Xor(R9, R8, R3)
	b.Shl(R10, R9, 3)
	b.Shr(R11, R10, 2)
	b.StoreSized(4, SP, -8, R1)
	b.LoadSized(2, R12, SP, -8)
	b.Store(TP, 16, R2)
	b.Load(R13, TP, 16)
	b.StoreAbs(g, R3)
	b.LoadAbs(R0, g)
	b.Label("loop")
	b.BrImm(GE, R1, 10, "done")
	b.Br(NE, R1, R2, "loop")
	b.AddImm(R1, R1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Lock(3)
	b.Unlock(3)
	b.Nop()
	b.MovImm(R0, 0)
	b.Syscall(SysExit)
	b.Halt()
	return b.MustFinish()
}

// parseReg inverts Reg.String.
func parseReg(s string) (Reg, error) {
	switch s {
	case "tp":
		return TP, nil
	case "sp":
		return SP, nil
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < int(NumRegs) {
			return Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// parseCond inverts Cond.String.
func parseCond(s string) (Cond, error) {
	for c := EQ; c <= GE; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("bad condition %q", s)
}

// parseMem splits "r2+8" / "sp-8" into register and signed offset.
func parseMem(s string) (Reg, int64, error) {
	i := strings.IndexAny(s[1:], "+-") + 1
	if i <= 0 {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	r, err := parseReg(s[:i])
	if err != nil {
		return 0, 0, err
	}
	off, err := strconv.ParseInt(s[i:], 10, 64)
	return r, off, err
}

// parseInstr inverts Instr.String — the test-local disassembly parser.
func parseInstr(text string) (Instr, error) {
	f := strings.Fields(strings.NewReplacer(",", " ", "[", " ", "]", " ").Replace(text))
	if len(f) == 0 {
		return Instr{}, fmt.Errorf("empty instruction")
	}
	mn := f[0]
	// Split "br.eq" / "bri.ne" into mnemonic and condition.
	var cond Cond
	if base, cs, ok := strings.Cut(mn, "."); ok {
		c, err := parseCond(cs)
		if err != nil {
			return Instr{}, err
		}
		mn, cond = base, c
	}
	// Split the size suffix off "ld8" / "st4" / "lda8" / "sta2".
	var size uint8
	for _, base := range []string{"lda", "sta", "ld", "st"} {
		if rest, ok := strings.CutPrefix(mn, base); ok && rest != "" {
			n, err := strconv.Atoi(rest)
			if err != nil {
				continue
			}
			mn, size = base, uint8(n)
			break
		}
	}
	num := func(s string) (int64, error) { return strconv.ParseInt(s, 0, 64) }
	unum := func(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
	reg3 := func(op Op) (Instr, error) {
		rd, err1 := parseReg(f[1])
		rs, err2 := parseReg(f[2])
		rt, err3 := parseReg(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: op, Rd: rd, Rs: rs, Rt: rt}, nil
	}
	regImm := func(op Op) (Instr, error) {
		rd, err1 := parseReg(f[1])
		rs, err2 := parseReg(f[2])
		imm, err3 := num(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: op, Rd: rd, Rs: rs, Imm: imm}, nil
	}
	switch mn {
	case "nop":
		return Instr{Op: Nop}, nil
	case "halt":
		return Instr{Op: Halt}, nil
	case "movi":
		rd, err1 := parseReg(f[1])
		imm, err2 := num(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: MovImm, Rd: rd, Imm: imm}, nil
	case "mov":
		rd, err1 := parseReg(f[1])
		rs, err2 := parseReg(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: Mov, Rd: rd, Rs: rs}, nil
	case "add":
		return reg3(Add)
	case "sub":
		return reg3(Sub)
	case "mul":
		return reg3(Mul)
	case "div":
		return reg3(Div)
	case "and":
		return reg3(And)
	case "or":
		return reg3(Or)
	case "xor":
		return reg3(Xor)
	case "addi":
		return regImm(AddImm)
	case "shl":
		return regImm(Shl)
	case "shr":
		return regImm(Shr)
	case "ld":
		rd, err1 := parseReg(f[1])
		rs, off, err2 := parseMem(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: Load, Size: size, Rd: rd, Rs: rs, Imm: off}, nil
	case "st":
		rs, off, err1 := parseMem(f[1])
		rt, err2 := parseReg(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: Store, Size: size, Rs: rs, Imm: off, Rt: rt}, nil
	case "lda":
		rd, err1 := parseReg(f[1])
		addr, err2 := unum(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: LoadAbs, Size: size, Rd: rd, Imm: int64(addr)}, nil
	case "sta":
		addr, err1 := unum(f[1])
		rt, err2 := parseReg(f[2])
		if err1 != nil || err2 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: StoreAbs, Size: size, Imm: int64(addr), Rt: rt}, nil
	case "jmp":
		tgt, err := unum(f[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: Jmp, Target: PC(tgt)}, nil
	case "br":
		rs, err1 := parseReg(f[1])
		rt, err2 := parseReg(f[2])
		tgt, err3 := unum(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: Br, Cond: cond, Rs: rs, Rt: rt, Target: PC(tgt)}, nil
	case "bri":
		rs, err1 := parseReg(f[1])
		imm, err2 := num(f[2])
		tgt, err3 := unum(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return Instr{}, fmt.Errorf("bad operands in %q", text)
		}
		return Instr{Op: BrImm, Cond: cond, Rs: rs, Imm: imm, Target: PC(tgt)}, nil
	case "lock", "unlock", "sys":
		imm, err := num(f[1])
		if err != nil {
			return Instr{}, err
		}
		op := map[string]Op{"lock": Lock, "unlock": Unlock, "sys": Syscall}[mn]
		return Instr{Op: op, Imm: imm}, nil
	}
	return Instr{}, fmt.Errorf("unknown mnemonic %q in %q", mn, text)
}

// TestDisassembleBuilderRoundTrip: parsing Disassemble's output and
// re-emitting it through a fresh Builder reproduces the original code
// stream and label map exactly — the renderer loses no instruction
// field, and the builder accepts everything the renderer emits.
func TestDisassembleBuilderRoundTrip(t *testing.T) {
	orig := roundTripProgram()
	b := NewBuilder(orig.Name)
	for _, line := range strings.Split(orig.Disassemble(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if name, ok := strings.CutSuffix(line, ":"); ok {
			b.Label(name)
			continue
		}
		// Instruction lines are "%6d  %s": strip the PC field.
		f := strings.Fields(line)
		if pc, err := strconv.Atoi(f[0]); err != nil || pc != int(b.PC()) {
			t.Fatalf("line %q: pc field %q does not match builder pc %d", line, f[0], b.PC())
		}
		in, err := parseInstr(strings.Join(f[1:], " "))
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		b.Emit(in)
	}
	round, err := b.Finish()
	if err != nil {
		t.Fatalf("rebuilt program invalid: %v", err)
	}
	if !reflect.DeepEqual(orig.Code, round.Code) {
		t.Errorf("code streams differ:\norig:\n%s\nround:\n%s", orig.Disassemble(), round.Disassemble())
	}
	if !reflect.DeepEqual(orig.Labels, round.Labels) {
		t.Errorf("label maps differ: %v vs %v", orig.Labels, round.Labels)
	}
}

// TestDisassembleDeterministic: the disassembly is byte-identical across
// calls — labels sharing a PC render in sorted order, never in map
// iteration order (report files diff this output).
func TestDisassembleDeterministic(t *testing.T) {
	p := roundTripProgram()
	first := p.Disassemble()
	for i := 0; i < 50; i++ {
		if got := p.Disassemble(); got != first {
			t.Fatalf("iteration %d: disassembly differs", i)
		}
	}
	if !strings.Contains(first, "alias:\nstart:") {
		t.Errorf("co-located labels not in sorted order:\n%s", first)
	}
}
