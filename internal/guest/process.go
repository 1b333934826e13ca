// Package guest models the guest operating system that runs inside
// AikidoVM: one process with many threads sharing a page table, a
// deterministic scheduler, and the syscalls the PARSEC-style workloads need
// (mmap/brk, futex locks, barriers, thread create/join, console write).
//
// The guest is deliberately small but structurally faithful to the parts of
// Linux that Aikido interposes on:
//
//   - all threads share one page table (so per-thread protection is
//     impossible without the hypervisor — the paper's motivating problem);
//   - every memory segment is backed by a Backing object (the analogue of
//     the backing files AikidoSD creates so it can map a segment twice);
//   - context switches between threads of one process do not change the
//     page table, so the hypervisor must be told about them explicitly
//     (the Hooks.ContextSwitch notification models the FS/GS-write VM exit
//     of paper §3.2.3);
//   - the kernel dereferences user pointers (SysWrite), triggering the
//     guest-OS fault emulation path of §3.2.6.
package guest

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// TID identifies a guest thread. The main thread is TID 1.
type TID int32

// NoTID is the invalid thread id.
const NoTID TID = 0

// VMAKind classifies a virtual memory area.
type VMAKind uint8

// VMA kinds.
const (
	VMACode VMAKind = iota
	VMAData
	VMAHeap
	VMAStack
	VMAMmap
	// VMAShadow marks regions allocated by the analysis runtime (Umbra
	// shadow memory). They are never page-protected by AikidoSD.
	VMAShadow
	// VMAMirror marks mirror regions aliasing another VMA's backing.
	VMAMirror
)

// String returns the kind name.
func (k VMAKind) String() string {
	switch k {
	case VMACode:
		return "code"
	case VMAData:
		return "data"
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMAMmap:
		return "mmap"
	case VMAShadow:
		return "shadow"
	case VMAMirror:
		return "mirror"
	}
	return "vma?"
}

// Backing is the physical storage behind one or more VMAs — the simulator's
// analogue of a backing file. Mirror pages are created by mapping the same
// Backing at a second virtual range (paper §3.3.3).
type Backing struct {
	Frames []vm.FrameID
	refs   int
}

// Pages returns the number of pages in the backing.
func (b *Backing) Pages() int { return len(b.Frames) }

// VMA is one contiguous virtual memory area of the process.
type VMA struct {
	Base    uint64
	Pages   int
	Prot    pagetable.Prot
	Kind    VMAKind
	Name    string
	Backing *Backing
	// MirrorOf points at the VMA this region mirrors (for VMAMirror).
	MirrorOf *VMA
}

// End returns the first address past the VMA.
func (v *VMA) End() uint64 { return v.Base + uint64(v.Pages)*vm.PageSize }

// Contains reports whether addr falls inside the VMA.
func (v *VMA) Contains(addr uint64) bool { return addr >= v.Base && addr < v.End() }

// String describes the VMA.
func (v *VMA) String() string {
	return fmt.Sprintf("%s [%#x,%#x) %s %q", v.Kind, v.Base, v.End(), v.Prot, v.Name)
}

// VMAListener observes address-space changes. Umbra (shadow allocation),
// the mirror manager (alias creation) and AikidoSD (protecting new pages)
// all register one.
type VMAListener interface {
	VMAAdded(v *VMA)
	VMARemoved(v *VMA)
}

// Hooks let the embedding system observe guest events. All fields are
// optional.
type Hooks struct {
	// ContextSwitch fires when the scheduler switches threads within the
	// process. The real kernel's write to the FS segment register at this
	// point is what AikidoVM traps (§3.2.3).
	ContextSwitch func(old, new TID)
	// ThreadStarted fires after a thread becomes runnable the first time.
	ThreadStarted func(t *Thread, creator TID)
	// ThreadExited fires when a thread halts.
	ThreadExited func(t *Thread)
	// ThreadJoined fires when a join completes: joiner has observed
	// child's termination (a happens-before edge for analyses).
	ThreadJoined func(joiner TID, child *Thread)
	// LockAcquired/LockReleased fire on successful futex transitions;
	// shared-data analyses hook these for happens-before edges.
	LockAcquired func(t *Thread, lock int64)
	LockReleased func(t *Thread, lock int64)
	// BarrierWait fires when a thread arrives at a barrier (before
	// blocking); BarrierRelease fires once per thread when it is released.
	BarrierWait    func(t *Thread, id int64)
	BarrierRelease func(t *Thread, id int64)
	// Syscall fires for every syscall entry.
	Syscall func(t *Thread, num int64)
	// TxBegin/TxEnd implement the SysTxBegin/SysTxEnd syscalls when an
	// STM runtime is attached; the returned value becomes the guest R0
	// (TxEnd: 1 = committed, 0 = aborted, retry). Nil hooks commit
	// vacuously.
	TxBegin func(t *Thread) int64
	TxEnd   func(t *Thread) int64
}

// Bus is the path by which the guest kernel touches memory on behalf of a
// thread (user=false accesses). It is wired to the hypervisor MMU so kernel
// accesses to Aikido-protected pages exercise the §3.2.6 emulation path.
type Bus interface {
	Load(tid TID, addr uint64, size uint8, user bool) (uint64, *pagetable.Fault)
	Store(tid TID, addr uint64, size uint8, val uint64, user bool) *pagetable.Fault
}

// directBus is the default Bus: it walks the guest page table (kernel mode)
// and accesses machine memory directly. Used when no hypervisor is present
// (native runs and unit tests).
type directBus struct{ p *Process }

func (b directBus) Load(_ TID, addr uint64, size uint8, _ bool) (uint64, *pagetable.Fault) {
	pte, fault := b.p.PT.Walk(addr, pagetable.AccessRead, false)
	if fault != nil {
		return 0, fault
	}
	return b.p.M.ReadU(pte.Frame, vm.PageOff(addr), size), nil
}

func (b directBus) Store(_ TID, addr uint64, size uint8, val uint64, _ bool) *pagetable.Fault {
	pte, fault := b.p.PT.Walk(addr, pagetable.AccessWrite, false)
	if fault != nil {
		return fault
	}
	b.p.M.WriteU(pte.Frame, vm.PageOff(addr), size, val)
	return nil
}

// SchedPolicy selects the guest scheduler's behaviour.
type SchedPolicy uint8

// Scheduling policies.
const (
	// SchedRoundRobin is the default: FIFO round-robin over runnable
	// threads with a fixed quantum (a deterministic stand-in for CFS).
	SchedRoundRobin SchedPolicy = iota
	// SchedSerialDFS executes the program serially in depth-first order:
	// thread creation runs the child to completion before the creator
	// resumes, exactly like a function call. This is the execution model
	// of the Nondeterminator (paper §1, ref [17]): a schedule-independent
	// determinacy-race detector analyses one canonical serial execution
	// of a fork-join program.
	SchedSerialDFS
)

// Process is one guest process: address space + threads + kernel objects.
type Process struct {
	M    *vm.Machine
	PT   *pagetable.Table
	Prog *isa.Program

	// Policy is the scheduling policy (default SchedRoundRobin). Set it
	// before execution starts.
	Policy SchedPolicy

	Hooks Hooks

	vmas      []*VMA
	listeners []VMAListener

	threads map[TID]*Thread
	runq    []TID
	current TID
	nextTID TID

	brk      uint64 // current program break
	mmapNext uint64 // next anonymous mapping address

	locks    map[int64]*lockState
	barriers map[int64]*barrierState

	bus Bus

	// Console receives SysWrite output.
	Console bytes.Buffer

	// Exited is set by SysExit; ExitCode holds its argument.
	Exited   bool
	ExitCode int64

	// Stats.
	ContextSwitches uint64
	SyscallCount    uint64
	LockContentions uint64
}

// NewProcess loads prog into a fresh address space and creates the main
// thread (TID 1), ready to run at prog.Entry.
func NewProcess(m *vm.Machine, prog *isa.Program) (*Process, error) {
	if err := prog.Valid(); err != nil {
		return nil, err
	}
	p := &Process{
		M:        m,
		PT:       pagetable.New(),
		Prog:     prog,
		threads:  make(map[TID]*Thread),
		locks:    make(map[int64]*lockState),
		barriers: make(map[int64]*barrierState),
		brk:      isa.HeapBase,
		mmapNext: isa.MmapBase,
		nextTID:  1,
	}
	p.bus = directBus{p}

	// Map the code segment read-only and install the instruction image.
	// (The image is written before AikidoSD protects anything, via direct
	// frame writes — the loader plays the role of execve.)
	codePages := int(vm.RoundUp(max64(prog.CodeBytes(), 1)) / vm.PageSize)
	codeVMA := p.addVMA(isa.CodeBase, codePages, pagetable.ProtRO, VMACode, "text")
	p.writeImage(codeVMA, encodeCode(prog))

	// Map the data segment read-write and install the initial image.
	dataPages := int(vm.RoundUp(max64(uint64(len(prog.Data)), 1)) / vm.PageSize)
	dataVMA := p.addVMA(isa.DataBase, dataPages, pagetable.ProtRW, VMAData, "data")
	p.writeImage(dataVMA, prog.Data)

	// Main thread: immediately current, so it leaves the run queue (the
	// queue holds only runnable-but-not-running threads).
	main := p.newThread(prog.Entry, 0, NoTID)
	p.current = main.ID
	p.runq = p.runq[1:]
	return p, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// encodeCode produces the byte image of the instruction stream. The
// encoding is a placeholder (instruction index), but it gives code pages
// real, mapped contents so that DynamoRIO's block builder has something to
// read and fault on.
func encodeCode(prog *isa.Program) []byte {
	img := make([]byte, prog.CodeBytes())
	for i := range prog.Code {
		off := i * isa.InstrBytes
		img[off] = byte(prog.Code[i].Op)
		img[off+1] = byte(i)
		img[off+2] = byte(i >> 8)
		img[off+3] = byte(i >> 16)
	}
	return img
}

// SetBus replaces the kernel memory access path (wired to the hypervisor
// MMU by the Aikido system assembly).
func (p *Process) SetBus(b Bus) { p.bus = b }

// AddVMAListener registers an address-space observer and replays existing
// VMAs to it so late-attaching components (Umbra, the mirror manager) see
// the whole space.
func (p *Process) AddVMAListener(l VMAListener) {
	p.listeners = append(p.listeners, l)
	for _, v := range p.vmas {
		l.VMAAdded(v)
	}
}

// addVMA allocates backing frames, maps them and notifies listeners.
func (p *Process) addVMA(base uint64, pages int, prot pagetable.Prot, kind VMAKind, name string) *VMA {
	b := &Backing{Frames: make([]vm.FrameID, pages), refs: 1}
	for i := range b.Frames {
		b.Frames[i] = p.M.AllocFrame()
	}
	v := &VMA{Base: base, Pages: pages, Prot: prot, Kind: kind, Name: name, Backing: b}
	p.installVMA(v)
	return v
}

// MapAlias maps an existing backing at a new base address — the double-mmap
// that creates mirror regions (§3.3.3). The alias shares physical frames
// with the original.
func (p *Process) MapAlias(of *VMA, base uint64, prot pagetable.Prot, kind VMAKind, name string) *VMA {
	of.Backing.refs++
	v := &VMA{Base: base, Pages: of.Pages, Prot: prot, Kind: kind, Name: name,
		Backing: of.Backing, MirrorOf: of}
	p.installVMA(v)
	return v
}

// MapShadow allocates an analysis-runtime region (Umbra shadow memory) that
// AikidoSD will never protect.
func (p *Process) MapShadow(base uint64, pages int, name string) *VMA {
	return p.addVMA(base, pages, pagetable.ProtRW, VMAShadow, name)
}

// MapRuntime allocates an analysis-runtime region with explicit guest
// protections (used for AikidoLib's fault-delivery pages, which must be
// mapped but deny the matching access kind, §3.2.5).
func (p *Process) MapRuntime(base uint64, pages int, prot pagetable.Prot, name string) *VMA {
	return p.addVMA(base, pages, prot, VMAShadow, name)
}

func (p *Process) installVMA(v *VMA) {
	for i := 0; i < v.Pages; i++ {
		vpn := vm.PageNum(v.Base) + uint64(i)
		if _, exists := p.PT.Lookup(vpn); exists {
			panic(fmt.Sprintf("guest: VMA %s overlaps mapped page %#x", v, vpn<<vm.PageShift))
		}
		p.PT.Map(vpn, v.Backing.Frames[i], v.Prot)
	}
	p.vmas = append(p.vmas, v)
	for _, l := range p.listeners {
		l.VMAAdded(v)
	}
}

// removeVMA unmaps a VMA and releases the backing when its last mapping
// goes away.
func (p *Process) removeVMA(v *VMA) {
	for i := 0; i < v.Pages; i++ {
		p.PT.Unmap(vm.PageNum(v.Base) + uint64(i))
	}
	for i, w := range p.vmas {
		if w == v {
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			break
		}
	}
	v.Backing.refs--
	if v.Backing.refs == 0 {
		for _, f := range v.Backing.Frames {
			p.M.FreeFrame(f)
		}
	}
	for _, l := range p.listeners {
		l.VMARemoved(v)
	}
}

// writeImage copies data into the VMA's frames directly (loader path; no
// protection checks).
func (p *Process) writeImage(v *VMA, data []byte) {
	for i := 0; i < v.Pages && len(data) > 0; i++ {
		n := len(data)
		if n > vm.PageSize {
			n = vm.PageSize
		}
		p.M.Write(v.Backing.Frames[i], 0, data[:n])
		data = data[n:]
	}
}

// VMAs returns the current address-space layout (do not mutate).
func (p *Process) VMAs() []*VMA { return p.vmas }

// FindVMA returns the VMA containing addr, or nil.
func (p *Process) FindVMA(addr uint64) *VMA {
	for _, v := range p.vmas {
		if v.Contains(addr) {
			return v
		}
	}
	return nil
}

// Brk returns the current program break.
func (p *Process) Brk() uint64 { return p.brk }

// KernelReadBytes reads n bytes at addr through the kernel access path,
// used by syscalls that take user buffers.
func (p *Process) KernelReadBytes(tid TID, addr uint64, n int) ([]byte, *pagetable.Fault) {
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		v, fault := p.bus.Load(tid, addr+uint64(i), 1, false)
		if fault != nil {
			return nil, fault
		}
		out = append(out, byte(v))
	}
	return out, nil
}
