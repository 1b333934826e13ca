package isa

import (
	"fmt"
	"sort"
)

// Guest syscall numbers (the Imm operand of a Syscall instruction).
// Arguments are taken from R0..R3 and the result is placed in R0.
const (
	// SysExit terminates the whole process. R0 = exit code.
	SysExit = iota
	// SysWrite writes R1 bytes from guest address R0 to the console.
	// The kernel dereferences user memory, which exercises the
	// guest-OS-fault emulation path of AikidoVM (paper §3.2.6).
	SysWrite
	// SysMmap maps R0 bytes (rounded up to pages) with protection R1 and
	// returns the base address in R0.
	SysMmap
	// SysMunmap unmaps R1 bytes at address R0.
	SysMunmap
	// SysBrk grows the heap break to address R0 (0 queries the current
	// break); returns the new break in R0.
	SysBrk
	// SysThreadCreate starts a new thread at PC R0 with R0 of the new
	// thread set to R1; returns the new thread id in R0.
	SysThreadCreate
	// SysThreadJoin blocks until thread R0 halts.
	SysThreadJoin
	// SysBarrier blocks on barrier id R0 until R1 threads have arrived.
	SysBarrier
	// SysYield voluntarily ends the thread's scheduling quantum.
	SysYield

	// NumSyscalls is the number of defined syscalls.
	NumSyscalls
)

// SyscallName returns a human-readable name for a syscall number.
func SyscallName(n int64) string {
	names := [...]string{"exit", "write", "mmap", "munmap", "brk",
		"thread_create", "thread_join", "barrier", "yield"}
	if n >= 0 && int(n) < len(names) {
		return names[n]
	}
	return fmt.Sprintf("sys(%d)", n)
}

// Program is an assembled guest program: a flat instruction stream plus the
// static data segment image that the loader maps into the guest address
// space.
type Program struct {
	// Name identifies the program in logs and statistics.
	Name string
	// Code is the instruction stream; PCs index into it.
	Code []Instr
	// Entry is the PC where the main thread starts.
	Entry PC
	// Data is the initialized prefix of the static data segment's image,
	// mapped at DataBase by the loader. Workload builders allocate
	// globals in the segment and initialize some of them here.
	Data []byte
	// DataSize is the size of the data segment in bytes, at least
	// len(Data). Bytes past len(Data) are zero: they cost no image here
	// and no page in the loaded process until the guest writes them.
	DataSize uint64
	// Labels maps symbolic label names to PCs (for debugging and tests).
	Labels map[string]PC
}

// Standard guest virtual address space layout used by the loader
// (internal/guest). Chosen to mimic a sparse 64-bit layout with a handful of
// densely populated regions, which is the property Umbra's region-based
// translation exploits (paper §2.2).
const (
	// CodeBase is where the instruction stream is mapped.
	CodeBase uint64 = 0x0000_0000_0040_0000
	// DataBase is where Program.Data is mapped.
	DataBase uint64 = 0x0000_0000_1000_0000
	// HeapBase is the initial program break, and the end of the largest
	// data segment.
	HeapBase uint64 = 0x0000_0000_2000_0000
	// MmapBase is where anonymous mappings are placed (growing up).
	MmapBase uint64 = 0x0000_0040_0000_0000
	// StackBase is where per-thread stacks are placed (each thread t gets
	// StackSize bytes at StackBase + t*StackStride).
	StackBase uint64 = 0x0000_7f00_0000_0000
	// StackSize is the size of one thread stack.
	StackSize uint64 = 1 << 16
	// StackStride separates consecutive thread stacks (including a guard
	// gap so stacks land on distinct pages and distinct Umbra regions
	// never abut).
	StackStride uint64 = 1 << 20
)

// maxDataSize bounds Program.DataSize: the data segment ends where the
// heap begins.
const maxDataSize = HeapBase - DataBase

// AddrOf returns the guest virtual address of the instruction at pc.
func (p *Program) AddrOf(pc PC) uint64 {
	return CodeBase + uint64(pc)*InstrBytes
}

// PCOf is the inverse of AddrOf. ok is false if addr is not in the code
// segment.
func (p *Program) PCOf(addr uint64) (PC, bool) {
	if addr < CodeBase {
		return 0, false
	}
	pc := (addr - CodeBase) / InstrBytes
	if pc >= uint64(len(p.Code)) {
		return 0, false
	}
	return PC(pc), true
}

// CodeBytes returns the size of the mapped code segment in bytes.
func (p *Program) CodeBytes() uint64 { return uint64(len(p.Code)) * InstrBytes }

// At returns the instruction at pc. It panics if pc is out of range, which
// indicates a control-flow bug in the program builder, not a guest error.
func (p *Program) At(pc PC) Instr {
	return p.Code[pc]
}

// Valid checks structural invariants: entry and all branch targets must be
// in range, memory sizes must be 1/2/4/8, registers must be below NumRegs
// and conditions at most GE, and the data image must fit a data segment
// that ends below the heap. It returns the first violation.
func (p *Program) Valid() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	if int(p.Entry) >= len(p.Code) {
		return fmt.Errorf("isa: program %q entry %d out of range", p.Name, p.Entry)
	}
	if uint64(len(p.Data)) > p.DataSize {
		return fmt.Errorf("isa: program %q data image of %d bytes exceeds its %d-byte data segment", p.Name, len(p.Data), p.DataSize)
	}
	if p.DataSize > maxDataSize {
		return fmt.Errorf("isa: program %q data segment of %d bytes runs into the heap at %#x", p.Name, p.DataSize, HeapBase)
	}
	for pc, in := range p.Code {
		if in.Op.IsBranch() && in.Op != Halt {
			if int(in.Target) >= len(p.Code) {
				return fmt.Errorf("isa: %q pc %d: branch target %d out of range", p.Name, pc, in.Target)
			}
		}
		if in.Op.IsMemRef() {
			switch in.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("isa: %q pc %d: bad access size %d", p.Name, pc, in.Size)
			}
		}
		if int(in.Op) >= int(numOps) {
			return fmt.Errorf("isa: %q pc %d: bad opcode %d", p.Name, pc, in.Op)
		}
		if r := max(in.Rd, in.Rs, in.Rt); r >= NumRegs {
			return fmt.Errorf("isa: %q pc %d: bad register %d", p.Name, pc, r)
		}
		if in.Cond >= numConds {
			return fmt.Errorf("isa: %q pc %d: bad condition %d", p.Name, pc, in.Cond)
		}
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line, with
// label annotations. Intended for debugging workload generators. Output
// is deterministic: labels sharing a PC are emitted in sorted order.
func (p *Program) Disassemble() string {
	byPC := make(map[PC][]string)
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	for _, names := range byPC {
		sort.Strings(names)
	}
	var out []byte
	for pc, in := range p.Code {
		for _, l := range byPC[PC(pc)] {
			out = append(out, fmt.Sprintf("%s:\n", l)...)
		}
		out = append(out, fmt.Sprintf("%6d  %s\n", pc, in)...)
	}
	return string(out)
}
