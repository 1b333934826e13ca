package paged_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/paged"
	"repro/internal/sharing"
	"repro/internal/vm"
)

// TestRegionBasesDistinctSlots pins the chunk-cache slots of the pages the
// page-keyed tables (the guest page table, AikidoVM's shadow and
// protection tables) touch first in each region: the code, data, heap,
// mmap and mirror bases and the first 16 thread stacks. Every base but
// code's is 256 MiB-aligned and thread stacks step by 1 MiB, so a slot
// taken from the chunk number's low bits would put most of them in slot
// 0, where they would evict each other on every alternation.
func TestRegionBasesDistinctSlots(t *testing.T) {
	type region struct {
		name string
		base uint64
	}
	regions := []region{
		{"code", isa.CodeBase}, {"data", isa.DataBase}, {"heap", isa.HeapBase},
		{"mmap", isa.MmapBase}, {"mirror", sharing.MirrorBase},
	}
	for i := range 16 {
		regions = append(regions, region{fmt.Sprintf("stack%d", i+1), isa.StackBase + uint64(i)*isa.StackStride})
	}
	owner := map[uint64]string{}
	for _, r := range regions {
		s := paged.KeySlot(vm.PageNum(r.base))
		if o, ok := owner[s]; ok {
			t.Errorf("%s (%#x) and %s share chunk-cache slot %d", r.name, r.base, o, s)
			continue
		}
		owner[s] = r.name
	}
}
