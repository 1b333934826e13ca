// Package provider abstracts the mechanism that gives one guest process
// per-thread page protection — the capability AikidoSD is built on and the
// axis along which the paper positions its related work (§7.1).
//
// Three implementations are provided, matching the three deployment
// strategies §1.1 and §7.1 discuss:
//
//   - AikidoVM (the paper's contribution): a hypervisor below an unmodified
//     OS, exposing hypercalls. Fully transparent — no OS or toolchain
//     changes — at the price of VM exits for protection changes, context
//     switches and guest-kernel emulation.
//   - DOS-style (ref [3]): per-thread page tables implemented by "extensive
//     modifications to the Linux kernel". Protection changes are plain
//     syscalls and the kernel handles its own accesses to protected pages
//     with a cheap ownership check — but the guest kernel must be patched.
//   - DTHREADS-style (refs [4], [24]): threads converted into processes by
//     a custom compiler/runtime, each with its own page table. Protection
//     is ordinary mprotect, but every "thread" switch is a process switch,
//     thread creation is fork, and the runtime must maintain the illusion
//     of a single process across syscalls.
//
// All three enforce identical protection *semantics* — the sharing
// detector's results cannot depend on the provider — while exposing very
// different cost structures and transparency properties. The providers
// ablation experiment quantifies the trade.
package provider

import (
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/pagetable"
)

// Kind identifies a provider implementation.
type Kind uint8

// Provider kinds.
const (
	// AikidoVM is the paper's hypervisor-based provider (the default).
	AikidoVM Kind = iota
	// DOS is the modified-kernel provider (dOS-style, paper ref [3]).
	DOS
	// Dthreads is the processes-as-threads provider (Grace/DTHREADS-style,
	// paper refs [4] and [24]).
	Dthreads
)

// String names the provider kind.
func (k Kind) String() string {
	switch k {
	case AikidoVM:
		return "aikidovm"
	case DOS:
		return "dos-kernel"
	case Dthreads:
		return "dthreads-procs"
	}
	return "provider?"
}

// Transparency describes what parts of the deployment a provider forces the
// developer to modify — the paper's central argument for the hypervisor
// approach (§1.1: "without any modifications").
type Transparency struct {
	// UnmodifiedOS is true when the guest kernel runs unpatched.
	UnmodifiedOS bool
	// UnmodifiedToolchain is true when applications need no custom
	// compiler or runtime.
	UnmodifiedToolchain bool
}

// Transparency is the deployment cost of provider k when AikidoVM
// intercepts context switches with sw (§7.1). Only AikidoVM reads sw: it
// leaves the guest kernel unmodified unless it relies on the kernel's
// switch hypercall. The dOS kernel must be patched, and DTHREADS needs
// its custom runtime.
func (k Kind) Transparency(sw hypervisor.SwitchInterception) Transparency {
	switch k {
	case AikidoVM:
		return Transparency{UnmodifiedOS: !sw.RequiresGuestModification(), UnmodifiedToolchain: true}
	case DOS:
		return Transparency{UnmodifiedOS: false, UnmodifiedToolchain: true}
	case Dthreads:
		return Transparency{UnmodifiedOS: true, UnmodifiedToolchain: false}
	}
	return Transparency{}
}

// Stats aggregates provider-side event counts, shared across
// implementations so the ablation harness can print one table.
type Stats struct {
	// ProtOps counts single-page protection changes; RangeOps counts
	// batched segment-granularity changes.
	ProtOps  uint64
	RangeOps uint64
	// Faults counts protection faults attributed to this provider.
	Faults uint64
	// KernelBypasses counts kernel accesses to protected pages resolved
	// by the provider (emulation, ownership check, or shim unprotect).
	KernelBypasses uint64
	// ThreadSetups counts per-thread state constructions (shadow tables,
	// cloned page tables, forked processes).
	ThreadSetups uint64
	// Switches counts context switches processed.
	Switches uint64
	// ModeledMemPages is the modeled per-thread memory overhead in pages
	// (page-table copies, forked address-space bookkeeping).
	ModeledMemPages uint64
}

// Interface is the full provider contract. The memory-path methods satisfy
// dbi.Memory; the protection methods are what sharing.Detector consumes;
// the lifecycle methods are wired to guest hooks by the system assembly.
type Interface interface {
	// Load/Store are the user-mode (user=true) and kernel-mode
	// (user=false) memory paths with per-thread protection enforced.
	// They serve the kernel bus (KernelBus) under every provider, and
	// the engine's user accesses under dOS and DTHREADS. Under AikidoVM
	// the engine's memory is the hypervisor itself.
	Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *hypervisor.Fault)
	Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *hypervisor.Fault

	// Protection surface used by AikidoSD. Implementations charge their
	// own costs (hypercall, syscall, …) to the simulated clock.
	ProtectPage(vpn uint64)
	ProtectRange(vpnBase uint64, pages int)
	ClearPage(vpn uint64)
	ClearRange(vpnBase uint64, pages int)
	UnprotectForThread(tid guest.TID, vpn uint64)
	// RearmPage re-protects one page for every current and future thread
	// in a single operation, optionally re-granting one owner (owner ==
	// guest.NoTID re-arms for everyone). Used by the sharing detector's
	// epoch demotion: one hypercall/syscall instead of a
	// protect+unprotect pair.
	RearmPage(vpn uint64, owner guest.TID)
	RegisterMirrorRange(vpnBase uint64, pages int)

	// FaultInfo extracts the true faulting address from a delivered fault
	// and reports whether this provider's protections caused it.
	FaultInfo(f *hypervisor.Fault) (addr uint64, ours bool)
	// ProtChangeCost is the cost of one protection change, for callers
	// that model hypothetical changes (DynamoRIO's §3.4 dance).
	ProtChangeCost() uint64

	// Guest lifecycle notifications.
	ContextSwitch(old, new guest.TID)
	ThreadStarted(tid, creator guest.TID)
	ThreadExited(tid guest.TID)
	OnSyscall(tid guest.TID, num int64)

	Overhead() Stats
}

// KernelBus adapts a provider to the guest kernel's memory path
// (guest.Bus). The provider resolves kernel reads of protected pages its
// own way — AikidoVM emulates the access (§3.2.6), the dOS kernel checks
// its ownership table, the DTHREADS shim unprotects around it — and
// charges the cost internally.
func KernelBus(prov Interface) guest.Bus { return kernelBus{prov} }

type kernelBus struct{ prov Interface }

func (b kernelBus) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *pagetable.Fault) {
	v, fault := b.prov.Load(tid, addr, size, user)
	if fault != nil {
		return 0, &pagetable.Fault{Addr: fault.Addr, Access: fault.Access, Unmapped: fault.Unmapped}
	}
	return v, nil
}
