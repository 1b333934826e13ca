// Package isa defines the synthetic instruction set executed by the Aikido
// machine simulator.
//
// The ISA is a small RISC-like register machine chosen to preserve exactly
// the properties the Aikido paper's rewriting engine cares about:
//
//   - memory accesses are explicit Load/Store instructions with a byte size;
//   - an access is either *direct* (absolute address encoded in the
//     instruction, rewritable to a mirror address at JIT time) or *indirect*
//     (address computed from a register, requiring a runtime shared/private
//     check, §3.3.2 of the paper);
//   - synchronization (locks, barriers, thread create/join) is visible to
//     the analysis tool, as pthread calls are to DynamoRIO tools.
//
// Programs are built with the Builder in asm.go and executed by the DBI
// engine in internal/dbi.
package isa

import "fmt"

// Reg names one of the 16 general-purpose registers.
type Reg uint8

// Register conventions used by the guest ABI.
const (
	// R0..R3 carry syscall arguments and return values.
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	// TP holds the thread-private base address (set up at thread start).
	TP
	// SP holds the stack pointer (top of the thread's private stack VMA).
	SP

	// NumRegs is the size of the register file.
	NumRegs = 16
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case TP:
		return "tp"
	case SP:
		return "sp"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. Memory-referencing opcodes are exactly {Load, Store, LoadAbs,
// StoreAbs}; everything else never touches guest data memory.
const (
	Nop Op = iota

	// MovImm: Rd = Imm.
	MovImm
	// Mov: Rd = Rs.
	Mov
	// Add: Rd = Rs + Rt.
	Add
	// AddImm: Rd = Rs + Imm.
	AddImm
	// Sub: Rd = Rs - Rt.
	Sub
	// Mul: Rd = Rs * Rt.
	Mul
	// Div: Rd = Rs / Rt (Rt==0 yields 0, the guest has no divide traps).
	Div
	// And: Rd = Rs & Rt.
	And
	// Or: Rd = Rs | Rt.
	Or
	// Xor: Rd = Rs ^ Rt.
	Xor
	// Shl: Rd = Rs << (Imm & 63).
	Shl
	// Shr: Rd = Rs >> (Imm & 63) (logical).
	Shr

	// Load: Rd = mem[Rs + Imm], indirect access of Size bytes.
	Load
	// Store: mem[Rs + Imm] = Rt, indirect access of Size bytes.
	Store
	// LoadAbs: Rd = mem[Imm], direct (absolute-address) access.
	LoadAbs
	// StoreAbs: mem[Imm] = Rt, direct (absolute-address) access.
	StoreAbs

	// Jmp: unconditional branch to Target.
	Jmp
	// Br: if Cond(Rs, Rt) then branch to Target.
	Br
	// BrImm: if Cond(Rs, Imm) then branch to Target.
	BrImm

	// Lock acquires the guest futex lock whose id is Imm.
	Lock
	// Unlock releases the guest futex lock whose id is Imm.
	Unlock

	// Syscall invokes guest OS service number Imm with args in R0..R3;
	// the result is returned in R0.
	Syscall

	// Halt terminates the executing thread.
	Halt

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", MovImm: "movi", Mov: "mov", Add: "add", AddImm: "addi",
	Sub: "sub", Mul: "mul", Div: "div", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Load: "ld", Store: "st", LoadAbs: "lda",
	StoreAbs: "sta", Jmp: "jmp", Br: "br", BrImm: "bri", Lock: "lock",
	Unlock: "unlock", Syscall: "sys", Halt: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemRef reports whether the opcode references guest data memory.
// These are the instructions a conservative shared-data analysis would have
// to instrument (column 1 of Table 2 in the paper).
func (o Op) IsMemRef() bool {
	switch o {
	case Load, Store, LoadAbs, StoreAbs:
		return true
	}
	return false
}

// IsDirect reports whether the opcode encodes its effective address as an
// immediate. Direct accesses can be statically rewritten to a mirror
// address; indirect accesses need a runtime check (paper §3.3.2).
func (o Op) IsDirect() bool { return o == LoadAbs || o == StoreAbs }

// IsWrite reports whether the opcode writes guest data memory.
func (o Op) IsWrite() bool { return o == Store || o == StoreAbs }

// IsBranch reports whether the opcode may transfer control, ending a basic
// block.
func (o Op) IsBranch() bool {
	switch o {
	case Jmp, Br, BrImm, Halt:
		return true
	}
	return false
}

// Cond is a branch condition comparing two operands.
type Cond uint8

// Branch conditions.
const (
	EQ Cond = iota // equal
	NE             // not equal
	LT             // signed less than
	LE             // signed less or equal
	GT             // signed greater than
	GE             // signed greater or equal

	numConds
)

// Eval evaluates the condition on two operand values interpreted as signed
// 64-bit integers.
func (c Cond) Eval(a, b uint64) bool {
	sa, sb := int64(a), int64(b)
	switch c {
	case EQ:
		return sa == sb
	case NE:
		return sa != sb
	case LT:
		return sa < sb
	case LE:
		return sa <= sb
	case GT:
		return sa > sb
	case GE:
		return sa >= sb
	}
	return false
}

// String returns the assembler name of the condition.
func (c Cond) String() string {
	switch c {
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case LE:
		return "le"
	case GT:
		return "gt"
	case GE:
		return "ge"
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// PC is an instruction address: an index into a Program's instruction
// stream. The guest maps the instruction stream into its address space at
// Program.CodeBase with InstrBytes bytes per instruction, so a PC also has a
// guest virtual address (see Program.AddrOf).
type PC uint32

// InstrBytes is the encoded size of one instruction in the guest address
// space. It only matters for mapping PCs onto code pages.
const InstrBytes = 4

// Instr is a single decoded instruction.
type Instr struct {
	Op     Op
	Rd     Reg   // destination register
	Rs     Reg   // first source register / address base
	Rt     Reg   // second source register / store value
	Imm    int64 // immediate: constant, displacement, absolute address, lock or syscall number
	Cond   Cond  // branch condition for Br/BrImm
	Target PC    // branch target for Jmp/Br/BrImm
	Size   uint8 // access size in bytes for memory ops (1, 2, 4 or 8)
}

// String renders the instruction in assembler-like syntax.
func (in Instr) String() string {
	switch in.Op {
	case Nop, Halt:
		return in.Op.String()
	case MovImm:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case Mov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case Add, Sub, Mul, Div, And, Or, Xor:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	case AddImm, Shl, Shr:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case Load:
		return fmt.Sprintf("%s%d %s, [%s%+d]", in.Op, in.Size, in.Rd, in.Rs, in.Imm)
	case Store:
		return fmt.Sprintf("%s%d [%s%+d], %s", in.Op, in.Size, in.Rs, in.Imm, in.Rt)
	case LoadAbs:
		return fmt.Sprintf("%s%d %s, [0x%x]", in.Op, in.Size, in.Rd, uint64(in.Imm))
	case StoreAbs:
		return fmt.Sprintf("%s%d [0x%x], %s", in.Op, in.Size, uint64(in.Imm), in.Rt)
	case Jmp:
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case Br:
		return fmt.Sprintf("%s.%s %s, %s, %d", in.Op, in.Cond, in.Rs, in.Rt, in.Target)
	case BrImm:
		return fmt.Sprintf("%s.%s %s, %d, %d", in.Op, in.Cond, in.Rs, in.Imm, in.Target)
	case Lock, Unlock:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case Syscall:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return in.Op.String()
}
