package guest

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// lockState is a futex-style mutex with FIFO handoff (deterministic).
type lockState struct {
	holder  TID
	waiters []TID
}

// barrierState tracks arrivals at one barrier id.
type barrierState struct {
	arrived []TID
}

// DoLock executes a Lock instruction for t. It returns true if the lock was
// acquired and execution continues, false if t blocked (the executor must
// not advance t's PC past the Lock until it holds the lock; blocking
// re-executes the instruction after wakeup, at which point the FIFO handoff
// has already assigned ownership).
func (p *Process) DoLock(t *Thread, id int64) bool {
	l := p.locks[id]
	if l == nil {
		l = &lockState{}
		p.locks[id] = l
	}
	switch l.holder {
	case NoTID:
		l.holder = t.ID
		if p.Hooks.LockAcquired != nil {
			p.Hooks.LockAcquired(t, id)
		}
		return true
	case t.ID:
		// Re-execution after a FIFO handoff: the unlocker already made
		// this thread the holder.
		if p.Hooks.LockAcquired != nil {
			p.Hooks.LockAcquired(t, id)
		}
		return true
	default:
		p.LockContentions++
		l.waiters = append(l.waiters, t.ID)
		p.block(t)
		return false
	}
}

// DoUnlock executes an Unlock instruction. Unlocking a lock the thread does
// not hold is a guest program bug and panics (the workload generators are
// trusted; real kernels return EPERM).
func (p *Process) DoUnlock(t *Thread, id int64) {
	l := p.locks[id]
	if l == nil || l.holder != t.ID {
		panic(fmt.Sprintf("guest: thread %d unlocks lock %d it does not hold", t.ID, id))
	}
	if p.Hooks.LockReleased != nil {
		p.Hooks.LockReleased(t, id)
	}
	if len(l.waiters) > 0 {
		next := l.waiters[0]
		l.waiters = popFront(l.waiters)
		l.holder = next // direct handoff keeps the order deterministic
		p.wake(next)
	} else {
		l.holder = NoTID
	}
}

// LockHolder reports the current holder of a lock (NoTID if free or
// unknown). For tests.
func (p *Process) LockHolder(id int64) TID {
	if l := p.locks[id]; l != nil {
		return l.holder
	}
	return NoTID
}

// SyscallResult tells the executor what happened to the calling thread.
type SyscallResult uint8

// Syscall results.
const (
	// SyscallDone: the syscall completed; advance PC and continue.
	SyscallDone SyscallResult = iota
	// SyscallBlocked: the thread blocked and another was scheduled. The
	// executor advances PC *before* invoking DoSyscall, so the thread
	// resumes after the syscall when woken (no restart).
	SyscallBlocked
	// SyscallYield: the syscall completed but the thread's quantum ends.
	SyscallYield
	// SyscallExit: the whole process exited.
	SyscallExit
)

// DoSyscall executes syscall num for t with the guest ABI (args R0..R3,
// result in R0).
func (p *Process) DoSyscall(t *Thread, num int64) (SyscallResult, error) {
	p.SyscallCount++
	switch num {
	case isa.SysExit:
		p.Exited = true
		p.ExitCode = int64(t.Regs[isa.R0])
		return SyscallExit, nil

	case isa.SysWrite:
		addr := t.Regs[isa.R0]
		n := int(t.Regs[isa.R1])
		if n < 0 || n > 1<<20 {
			return SyscallDone, fmt.Errorf("guest: write of unreasonable length %d", n)
		}
		// The kernel dereferences the user buffer: this is the path that
		// faults on Aikido-protected pages and gets emulated (§3.2.6).
		buf, fault := p.KernelReadBytes(t.ID, addr, n)
		if fault != nil {
			return SyscallDone, fmt.Errorf("guest: write syscall faulted: %w", fault)
		}
		p.Console.Write(buf)
		t.Regs[isa.R0] = uint64(n)
		return SyscallDone, nil

	case isa.SysMmap:
		length := t.Regs[isa.R0]
		prot := pagetable.Prot(t.Regs[isa.R1])
		if prot == 0 {
			prot = pagetable.ProtRW
		}
		base, err := p.Mmap(length, prot)
		if err != nil {
			return SyscallDone, err
		}
		t.Regs[isa.R0] = base
		return SyscallDone, nil

	case isa.SysMunmap:
		addr := t.Regs[isa.R0]
		if err := p.Munmap(addr); err != nil {
			return SyscallDone, err
		}
		t.Regs[isa.R0] = 0
		return SyscallDone, nil

	case isa.SysBrk:
		brk, err := p.GrowBrk(t.Regs[isa.R0])
		if err != nil {
			return SyscallDone, err
		}
		t.Regs[isa.R0] = brk
		return SyscallDone, nil

	case isa.SysThreadCreate:
		entry := isa.PC(t.Regs[isa.R0])
		if int(entry) >= len(p.Prog.Code) {
			return SyscallDone, fmt.Errorf("guest: thread_create entry %d out of range", entry)
		}
		nt := p.newThread(entry, t.Regs[isa.R1], t.ID)
		t.Regs[isa.R0] = uint64(nt.ID)
		if p.Policy == SchedSerialDFS {
			// Depth-first serial execution: the child runs to completion
			// before the creator resumes (spawn behaves like a call).
			// Put the child at the head of the queue and park the
			// creator until the child exits.
			for i, id := range p.runq {
				if id == nt.ID {
					copy(p.runq[1:i+1], p.runq[:i])
					p.runq[0] = nt.ID
					break
				}
			}
			nt.resumeOnExit = t.ID
			p.block(t)
			return SyscallBlocked, nil
		}
		return SyscallDone, nil

	case isa.SysThreadJoin:
		target := TID(t.Regs[isa.R0])
		tt := p.Thread(target)
		if tt == nil {
			return SyscallDone, fmt.Errorf("guest: join of unknown thread %d", target)
		}
		if tt.State == Done {
			t.Regs[isa.R0] = 0
			if p.Hooks.ThreadJoined != nil {
				p.Hooks.ThreadJoined(t.ID, tt)
			}
			return SyscallDone, nil
		}
		// Block until the target exits; the wakeup resumes after the
		// syscall instruction.
		tt.joinWaiters = append(tt.joinWaiters, t.ID)
		p.block(t)
		return SyscallBlocked, nil

	case isa.SysBarrier:
		id := int64(t.Regs[isa.R0])
		n := int(t.Regs[isa.R1])
		b := p.barriers[id]
		if b == nil {
			b = &barrierState{}
			p.barriers[id] = b
		}
		// Barriers are reusable: the arrival list is cleared on each
		// release. A double arrival without a release in between means
		// the executor resumed a blocked thread at the wrong PC.
		for _, a := range b.arrived {
			if a == t.ID {
				panic(fmt.Sprintf("guest: thread %d re-arrives at barrier %d", t.ID, id))
			}
		}
		if p.Hooks.BarrierWait != nil {
			p.Hooks.BarrierWait(t, id)
		}
		b.arrived = append(b.arrived, t.ID)
		if len(b.arrived) >= n {
			// Last arrival: release everyone.
			for _, a := range b.arrived {
				if a != t.ID {
					p.wake(a)
				}
				if p.Hooks.BarrierRelease != nil {
					p.Hooks.BarrierRelease(p.Thread(a), id)
				}
			}
			b.arrived = b.arrived[:0]
			return SyscallYield, nil
		}
		p.blockAtBarrier(t)
		return SyscallBlocked, nil

	case isa.SysYield:
		return SyscallYield, nil
	}
	return SyscallDone, fmt.Errorf("guest: unknown syscall %d", num)
}

// blockAtBarrier blocks t until the barrier's last arrival wakes it.
func (p *Process) blockAtBarrier(t *Thread) {
	t.State = Blocked
	p.Schedule()
}

// maxMapPages caps one mapping: an mmap, or one growth of the break, of
// more than 2^16 pages (256 MiB) fails instead of allocating its frames.
const maxMapPages = 1 << 16

// Mmap maps length bytes (rounded up to pages) of fresh anonymous memory
// and returns the base address. A length past 2^16 pages (256 MiB) is an
// error.
func (p *Process) Mmap(length uint64, prot pagetable.Prot) (uint64, error) {
	if length > maxMapPages*vm.PageSize {
		return 0, fmt.Errorf("guest: mmap of %d bytes exceeds the %d-page cap", length, maxMapPages)
	}
	pages := int(vm.RoundUp(max64(length, 1)) / vm.PageSize)
	base := p.mmapNext
	// Leave a one-page guard gap between mappings so regions never abut
	// (keeps Umbra regions distinct).
	p.mmapNext += uint64(pages+1) * vm.PageSize
	p.addVMA(base, pages, prot, VMAMmap, fmt.Sprintf("mmap@%#x", base))
	return base, nil
}

// Munmap removes the mmap mapping whose base address is addr. No other
// kind of VMA can be unmapped this way: the runtime's mirror aliases go
// only through UnmapAlias.
func (p *Process) Munmap(addr uint64) error {
	for _, v := range p.vmas {
		if v.Base == addr && v.Kind == VMAMmap {
			p.removeVMA(v)
			return nil
		}
	}
	return fmt.Errorf("guest: munmap of unknown mapping %#x", addr)
}

// GrowBrk implements brk: want==0 queries; otherwise the break grows to
// want (shrinking is ignored, like early Unix). Each growth adds a new heap
// VMA chunk, which keeps VMA-granular listeners (mirroring, Umbra) simple —
// this mirrors AikidoSD's emulation of brk with mmapped files (§3.3.3).
// The heap ends at MmapBase at the latest, and one growth maps at most
// 2^16 pages (256 MiB); a want past either bound is an error.
func (p *Process) GrowBrk(want uint64) (uint64, error) {
	if want <= p.brk {
		return p.brk, nil
	}
	if want > isa.MmapBase || want-p.brk > maxMapPages*vm.PageSize {
		return p.brk, fmt.Errorf("guest: brk from %#x to %#x grows past the mmap area or the %d-page cap", p.brk, want, maxMapPages)
	}
	newBrk := isa.HeapBase + vm.RoundUp(want-isa.HeapBase)
	pages := int((newBrk - p.brk) / vm.PageSize)
	p.addVMA(p.brk, pages, pagetable.ProtRW, VMAHeap,
		fmt.Sprintf("heap@%#x", p.brk))
	p.brk = newBrk
	return p.brk, nil
}
