package isa

import (
	"encoding/binary"
	"fmt"
)

// Builder assembles a Program incrementally. It supports forward label
// references, which are resolved by Finish. The zero value is not usable;
// call NewBuilder.
//
// Builder methods return the Builder to allow chaining; emission errors
// (duplicate labels, undefined labels) are deferred to Finish so that
// workload-generation code stays linear.
type Builder struct {
	name string
	code []Instr
	// data is the initialized prefix of the data image; dataSize is the
	// whole segment, whose bytes past len(data) are zero.
	data     []byte
	dataSize uint64
	labels   map[string]PC
	// fixups records instructions whose Target awaits a label.
	fixups []fixup
	errs   []error
}

type fixup struct {
	pc    PC
	label string
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]PC)}
}

// PC returns the program counter of the next instruction to be emitted.
func (b *Builder) PC() PC { return PC(len(b.code)) }

// Emit appends a raw instruction and returns its PC.
func (b *Builder) Emit(in Instr) PC {
	pc := b.PC()
	b.code = append(b.code, in)
	return pc
}

// Label defines a label at the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return b
	}
	b.labels[name] = b.PC()
	return b
}

// Global allocates size bytes in the data segment aligned to align and
// returns its guest virtual address. The bytes read as zero until Init
// sets them, and cost nothing in the program image: only the segment's
// size grows. A negative size, or a global that would end past the
// data segment (HeapBase - DataBase bytes), is a Finish error.
func (b *Builder) Global(size, align int) uint64 {
	if align <= 0 {
		align = 8
	}
	off := b.dataSize
	if r := off % uint64(align); r != 0 {
		off += uint64(align) - r
	}
	switch {
	case size < 0:
		b.errs = append(b.errs, fmt.Errorf("isa: global of negative size %d", size))
	case off > maxDataSize || uint64(size) > maxDataSize-off:
		b.errs = append(b.errs, fmt.Errorf("isa: global of %d bytes at data offset %#x overruns the %#x-byte data segment", size, off, maxDataSize))
	default:
		b.dataSize = off + uint64(size)
	}
	return DataBase + off
}

// GlobalU64 allocates an 8-byte global initialized to v.
func (b *Builder) GlobalU64(v uint64) uint64 {
	addr := b.Global(8, 8)
	if v != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		b.Init(addr, w[:])
	}
	return addr
}

// GlobalArray allocates n 8-byte slots, 8-aligned, returning the base.
func (b *Builder) GlobalArray(n int) uint64 { return b.Global(n*8, 8) }

// Init sets the initial image of the data segment at addr to init. The
// range must lie inside globals already allocated; one that does not is
// a Finish error.
func (b *Builder) Init(addr uint64, init []byte) *Builder {
	off := addr - DataBase
	if addr < DataBase || off > b.dataSize || uint64(len(init)) > b.dataSize-off {
		b.errs = append(b.errs, fmt.Errorf("isa: init of %d bytes at %#x outside the %d-byte data segment", len(init), addr, b.dataSize))
		return b
	}
	if end := off + uint64(len(init)); end > uint64(len(b.data)) {
		b.data = append(b.data, make([]byte, end-uint64(len(b.data)))...)
	}
	copy(b.data[off:], init)
	return b
}

// --- instruction helpers -------------------------------------------------

// MovImm emits rd = imm.
func (b *Builder) MovImm(rd Reg, imm int64) *Builder {
	b.Emit(Instr{Op: MovImm, Rd: rd, Imm: imm})
	return b
}

// Mov emits rd = rs.
func (b *Builder) Mov(rd, rs Reg) *Builder {
	b.Emit(Instr{Op: Mov, Rd: rd, Rs: rs})
	return b
}

// Add emits rd = rs + rt.
func (b *Builder) Add(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Add, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// AddImm emits rd = rs + imm.
func (b *Builder) AddImm(rd, rs Reg, imm int64) *Builder {
	b.Emit(Instr{Op: AddImm, Rd: rd, Rs: rs, Imm: imm})
	return b
}

// Sub emits rd = rs - rt.
func (b *Builder) Sub(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Sub, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// Mul emits rd = rs * rt.
func (b *Builder) Mul(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Mul, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// Div emits rd = rs / rt (0 when rt is 0).
func (b *Builder) Div(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Div, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// Xor emits rd = rs ^ rt.
func (b *Builder) Xor(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Xor, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// And emits rd = rs & rt.
func (b *Builder) And(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: And, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// Or emits rd = rs | rt.
func (b *Builder) Or(rd, rs, rt Reg) *Builder {
	b.Emit(Instr{Op: Or, Rd: rd, Rs: rs, Rt: rt})
	return b
}

// Shl emits rd = rs << imm.
func (b *Builder) Shl(rd, rs Reg, imm int64) *Builder {
	b.Emit(Instr{Op: Shl, Rd: rd, Rs: rs, Imm: imm})
	return b
}

// Shr emits rd = rs >> imm (logical).
func (b *Builder) Shr(rd, rs Reg, imm int64) *Builder {
	b.Emit(Instr{Op: Shr, Rd: rd, Rs: rs, Imm: imm})
	return b
}

// Nop emits a no-op (used by workloads to model non-memory work).
func (b *Builder) Nop() *Builder {
	b.Emit(Instr{Op: Nop})
	return b
}

// Load emits rd = mem8[rs+disp] (8-byte indirect load).
func (b *Builder) Load(rd, rs Reg, disp int64) *Builder {
	b.Emit(Instr{Op: Load, Rd: rd, Rs: rs, Imm: disp, Size: 8})
	return b
}

// Store emits mem8[rs+disp] = rt (8-byte indirect store).
func (b *Builder) Store(rs Reg, disp int64, rt Reg) *Builder {
	b.Emit(Instr{Op: Store, Rs: rs, Imm: disp, Rt: rt, Size: 8})
	return b
}

// LoadSized emits an indirect load of the given byte size.
func (b *Builder) LoadSized(size uint8, rd, rs Reg, disp int64) *Builder {
	b.Emit(Instr{Op: Load, Rd: rd, Rs: rs, Imm: disp, Size: size})
	return b
}

// StoreSized emits an indirect store of the given byte size.
func (b *Builder) StoreSized(size uint8, rs Reg, disp int64, rt Reg) *Builder {
	b.Emit(Instr{Op: Store, Rs: rs, Imm: disp, Rt: rt, Size: size})
	return b
}

// LoadAbs emits rd = mem8[addr] (direct load from an absolute address).
func (b *Builder) LoadAbs(rd Reg, addr uint64) *Builder {
	b.Emit(Instr{Op: LoadAbs, Rd: rd, Imm: int64(addr), Size: 8})
	return b
}

// StoreAbs emits mem8[addr] = rt (direct store to an absolute address).
func (b *Builder) StoreAbs(addr uint64, rt Reg) *Builder {
	b.Emit(Instr{Op: StoreAbs, Imm: int64(addr), Rt: rt, Size: 8})
	return b
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	pc := b.Emit(Instr{Op: Jmp})
	b.fixups = append(b.fixups, fixup{pc, label})
	return b
}

// Br emits a conditional branch comparing two registers.
func (b *Builder) Br(c Cond, rs, rt Reg, label string) *Builder {
	pc := b.Emit(Instr{Op: Br, Cond: c, Rs: rs, Rt: rt})
	b.fixups = append(b.fixups, fixup{pc, label})
	return b
}

// BrImm emits a conditional branch comparing a register to an immediate.
func (b *Builder) BrImm(c Cond, rs Reg, imm int64, label string) *Builder {
	pc := b.Emit(Instr{Op: BrImm, Cond: c, Rs: rs, Imm: imm})
	b.fixups = append(b.fixups, fixup{pc, label})
	return b
}

// Lock emits an acquire of guest lock id.
func (b *Builder) Lock(id int64) *Builder {
	b.Emit(Instr{Op: Lock, Imm: id})
	return b
}

// Unlock emits a release of guest lock id.
func (b *Builder) Unlock(id int64) *Builder {
	b.Emit(Instr{Op: Unlock, Imm: id})
	return b
}

// Syscall emits a syscall instruction.
func (b *Builder) Syscall(num int64) *Builder {
	b.Emit(Instr{Op: Syscall, Imm: num})
	return b
}

// Halt emits a thread-exit instruction.
func (b *Builder) Halt() *Builder {
	b.Emit(Instr{Op: Halt})
	return b
}

// --- composite helpers ----------------------------------------------------

// LoopN emits a counted loop executing body n times using counter register
// rc. The body callback must not clobber rc.
func (b *Builder) LoopN(rc Reg, n int64, body func(*Builder)) *Builder {
	head := fmt.Sprintf(".loop%d", b.PC())
	done := fmt.Sprintf(".done%d", b.PC())
	b.MovImm(rc, 0)
	b.Label(head)
	b.BrImm(GE, rc, n, done)
	body(b)
	b.AddImm(rc, rc, 1)
	b.Jmp(head)
	b.Label(done)
	return b
}

// Barrier emits a barrier syscall: wait on barrier id until n threads
// arrive. Clobbers R0 and R1.
func (b *Builder) Barrier(id, n int64) *Builder {
	b.MovImm(R0, id)
	b.MovImm(R1, n)
	b.Syscall(SysBarrier)
	return b
}

// ThreadCreate emits a thread_create syscall starting at label with the new
// thread's R0 set from argReg. The new thread id is left in R0. Clobbers R1.
func (b *Builder) ThreadCreate(label string, argReg Reg) *Builder {
	// R0 = entry PC: patched via fixup on the MovImm below.
	pc := b.Emit(Instr{Op: MovImm, Rd: R0})
	b.fixups = append(b.fixups, fixup{pc, label})
	b.Mov(R1, argReg)
	b.Syscall(SysThreadCreate)
	return b
}

// ThreadJoin emits a join on the thread id currently in reg. Clobbers R0.
func (b *Builder) ThreadJoin(reg Reg) *Builder {
	b.Mov(R0, reg)
	b.Syscall(SysThreadJoin)
	return b
}

// Finish resolves labels and returns the assembled, validated program.
func (b *Builder) Finish() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", f.label)
		}
		in := &b.code[f.pc]
		if in.Op == MovImm {
			in.Imm = int64(pc) // ThreadCreate entry patch
		} else {
			in.Target = pc
		}
	}
	p := &Program{
		Name:     b.name,
		Code:     b.code,
		Entry:    0,
		Data:     b.data,
		DataSize: b.dataSize,
		Labels:   b.labels,
	}
	if err := p.Valid(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFinish is Finish that panics on error; for tests and static workloads
// whose correctness is established by the test suite.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
