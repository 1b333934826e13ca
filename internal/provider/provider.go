// Package provider is AikidoLib's guest-side shim over AikidoVM (§3.2.5):
// the per-thread page protection that AikidoSD is built on. Protection
// requests become hypercalls, faults that AikidoVM delivers at the
// registered delivery pages are classified and resolved to their true
// address, and guest-kernel reads of protected pages go through the
// hypervisor's emulation path (§3.2.6). The shim charges each hypercall
// and each emulated kernel instruction to the simulated clock, and counts
// its events in Stats.
package provider

import (
	"repro/internal/guest"
	"repro/internal/pagetable"
)

// Stats counts the provider-side events of one run.
type Stats struct {
	// ProtOps counts single-page protection changes; RangeOps counts
	// batched segment-granularity changes.
	ProtOps  uint64
	RangeOps uint64
	// Faults counts delivered faults that AikidoVM's protections caused.
	Faults uint64
	// KernelBypasses counts guest-kernel instructions that AikidoVM
	// emulated because they touched a page protected for the thread.
	KernelBypasses uint64
	// ThreadSetups counts per-thread shadow-table constructions.
	ThreadSetups uint64
	// Switches counts context switches processed.
	Switches uint64
	// ModeledMemPages is the modeled per-thread memory overhead in pages
	// (the shadow root and the protection-table row pages).
	ModeledMemPages uint64
}

// KernelBus adapts the provider to the guest kernel's memory path
// (guest.Bus): AikidoVM emulates kernel reads of protected pages
// (§3.2.6), and the provider charges the emulation.
func KernelBus(prov *AikidoVM) guest.Bus { return kernelBus{prov} }

type kernelBus struct{ prov *AikidoVM }

func (b kernelBus) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *pagetable.Fault) {
	v, fault := b.prov.Load(tid, addr, size, user)
	if fault != nil {
		return 0, &pagetable.Fault{Addr: fault.Addr, Access: fault.Access, Unmapped: fault.Unmapped}
	}
	return v, nil
}
