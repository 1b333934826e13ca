package lockset

import "testing"

// TestLockHooksNoAllocs pins the interned locksets: acquiring and releasing
// locks a thread has held before builds each new set in a scratch buffer,
// finds it by its binary key and allocates nothing.
func TestLockHooksNoAllocs(t *testing.T) {
	d := det()
	cycle := func() {
		d.OnAcquire(1, 7)
		d.OnAcquire(1, 9)
		d.OnRelease(1, 7)
		d.OnRelease(1, 9)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("acquire/release of seen locks allocates %.1f objects, want 0", n)
	}
}

// TestRefiningAccessNoAllocs pins the refinement path: intersecting two
// distinct non-empty locksets builds the result in a scratch buffer and
// finds it by its binary key, so once the result set exists a refining
// access allocates nothing.
func TestRefiningAccessNoAllocs(t *testing.T) {
	d := det()
	d.OnAcquire(1, 1)
	d.OnAccess(1, 1, x, 8, true) // Exclusive to thread 1, C(v) = {1}
	d.OnRelease(1, 1)
	d.OnAcquire(2, 1)
	d.OnAcquire(2, 2)
	access := func() { d.OnAccess(2, 2, x, 8, true) } // C(v) ∩= {1, 2}
	access()
	before := d.C.Refinements
	if n := testing.AllocsPerRun(200, access); n != 0 {
		t.Errorf("refining access allocates %.1f objects, want 0", n)
	}
	if d.C.Refinements == before {
		t.Fatal("no refinement ran — the guard is vacuous")
	}
	if ws := d.Warnings(); len(ws) != 0 {
		t.Errorf("consistently locked variable warned: %v", ws)
	}
}

// TestOnAccessNoAllocs pins the paged variable store: accesses that
// materialize new variables on pages that already hold cells allocate
// nothing.
func TestOnAccessNoAllocs(t *testing.T) {
	d := det()
	const pages = 8
	for p := uint64(0); p < pages; p++ {
		d.OnAccess(1, 1, x+p<<12, 8, true)
	}
	next := x
	sweep := func() {
		for i := 0; i < 512; i++ {
			if next += 8; next&0xfff == 0 {
				next += 8 // skip the block each page was touched at
			}
			d.OnAccess(1, 1, next, 8, i%2 == 0)
		}
	}
	if n := testing.AllocsPerRun(4, sweep); n != 0 {
		t.Errorf("new variables on touched pages allocate %.1f objects per 512, want 0", n)
	}
}

// BenchmarkPipelineSync measures one lock acquire+release pair.
func BenchmarkPipelineSync(b *testing.B) {
	d := det()
	d.OnAcquire(1, 7)
	d.OnRelease(1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAcquire(1, 7)
		d.OnRelease(1, 7)
	}
}

// BenchmarkPipelineOnAccess measures a refining access to a shared
// variable — the path every access to shared data takes once a second
// thread has touched it.
func BenchmarkPipelineOnAccess(b *testing.B) {
	d := det()
	d.OnAcquire(1, 1)
	d.OnAccess(1, 1, x, 8, true)
	d.OnRelease(1, 1)
	d.OnAcquire(2, 1)
	d.OnAcquire(2, 2)
	d.OnAccess(2, 2, x, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(2, 2, x, 8, true)
	}
}
