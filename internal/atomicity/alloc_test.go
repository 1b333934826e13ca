package atomicity

import "testing"

// TestOnAccessNoAllocs pins the paged variable store: accesses that
// materialize new variables on pages that already hold cells allocate
// nothing, inside a region or outside one.
func TestOnAccessNoAllocs(t *testing.T) {
	d := det()
	const pages = 8
	for p := uint64(0); p < pages; p++ {
		d.OnAccess(1, 1, v+p<<12, 8, true)
	}
	next := v
	sweep := func() {
		d.OnAcquire(1, 1)
		for i := 0; i < 512; i++ {
			if next += 8; next&0xfff == 0 {
				next += 8 // skip the block each page was touched at
			}
			d.OnAccess(1, 1, next, 8, i%2 == 0)
			d.OnAccess(2, 2, next, 8, true)
		}
		d.OnRelease(1, 1)
	}
	if n := testing.AllocsPerRun(4, sweep); n != 0 {
		t.Errorf("new variables on touched pages allocate %.1f objects per 512, want 0", n)
	}
	if want := uint64(pages + 5*512); d.C.Variables != want {
		t.Errorf("vars = %d, want %d", d.C.Variables, want)
	}
}

// TestVarsCountsAccessOutsideRegions pins the touched bit: an access
// outside every region leaves the rest of the cell zero, yet the variable
// counts, once.
func TestVarsCountsAccessOutsideRegions(t *testing.T) {
	d := det()
	d.OnAccess(1, 1, v, 8, false)
	d.OnAccess(1, 1, v, 8, true)
	d.OnAccess(2, 2, v, 8, false)
	if d.C.Variables != 1 {
		t.Errorf("vars = %d, want 1", d.C.Variables)
	}
}

// BenchmarkPipelineOnAccess measures an access inside a region to a
// variable another thread also uses — the interleaving check every
// analyzed access runs.
func BenchmarkPipelineOnAccess(b *testing.B) {
	d := det()
	d.OnAccess(2, 2, v, 8, true)
	d.OnAcquire(1, 1)
	d.OnAccess(1, 1, v, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(1, 1, v, 8, i&1 == 0)
	}
}
