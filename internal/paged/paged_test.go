package paged

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// chunksInSlot[s] lists the four smallest chunk numbers whose cache slot
// is s, so a test can make chunks collide in the cache whatever slotOf
// hashes.
var chunksInSlot = func() (out [cacheSlots][4]uint64) {
	var filled [cacheSlots]int
	for n, left := uint64(0), cacheSlots*4; left > 0; n++ {
		if s := slotOf(n); filled[s] < 4 {
			out[s][filled[s]] = n
			filled[s]++
			left--
		}
	}
	return out
}()

// collider returns a key in another chunk than key's whose chunk shares
// key's cache slot, at the same in-chunk offset.
func collider(key uint64) uint64 {
	n := key >> chunkBits
	m := n + 1
	for slotOf(m) != slotOf(n) {
		m++
	}
	return m<<chunkBits | key&(chunkLen-1)
}

// TestTableMatchesMap drives the table and a map with the same random
// access stream — keys spread over more chunks than the chunk cache has
// slots, so slots are evicted and refilled — and demands the same cell
// contents throughout.
func TestTableMatchesMap(t *testing.T) {
	var tb Table[uint64]
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// 256 chunks over 64 slots, so chunks collide in the cache.
		key := uint64(rng.Intn(256))<<chunkBits | uint64(rng.Intn(chunkLen))
		c := tb.At(key)
		if *c != ref[key] {
			t.Fatalf("step %d: cell %#x = %d, want %d", i, key, *c, ref[key])
		}
		*c++
		ref[key]++
	}
}

// TestCellIdentity pins the addressing: neighbouring keys map to distinct
// cells, Get and At agree, and a cell keeps its address across cache
// evictions.
func TestCellIdentity(t *testing.T) {
	var tb Table[int32]
	const k = uint64(0x7000)
	c := tb.At(k)
	if tb.Get(k) != c {
		t.Fatal("Get and At disagree on a materialized cell")
	}
	if tb.At(k+1) == c || tb.At(k-1) == c {
		t.Fatal("neighbouring keys share a cell")
	}
	// Evict k's cache slot with a colliding chunk, then come back.
	tb.At(collider(k))
	if tb.Get(k) != c {
		t.Fatal("cell moved after its cache slot was evicted (Get)")
	}
	tb.At(collider(k))
	if tb.At(k) != c {
		t.Fatal("cell moved after its cache slot was evicted (At)")
	}
}

// TestAtNoAllocs pins the allocation-free contract: a cell in a chunk that
// already exists costs no allocation, through the cache or after a
// conflict eviction.
func TestAtNoAllocs(t *testing.T) {
	var tb Table[[3]uint64]
	a := uint64(0x2000)
	b := collider(a)
	tb.At(a)
	tb.At(b)
	next := a
	if n := testing.AllocsPerRun(100, func() {
		next++
		tb.At(next)[0]++
		tb.At(b)[1]++ // same cache slot: evicts and refills
	}); n != 0 {
		t.Errorf("At allocates %.1f objects, want 0", n)
	}
}

// TestGetAbsentNoAllocs pins the lookup contract the translation fast path
// relies on: Get on a chunk that was never materialized returns nil and
// allocates nothing — not even the chunk map of an empty table.
func TestGetAbsentNoAllocs(t *testing.T) {
	var tb Table[uint64]
	if n := testing.AllocsPerRun(100, func() {
		if tb.Get(0x1234) != nil {
			t.Fatal("Get on an empty table returned a cell")
		}
	}); n != 0 {
		t.Errorf("Get on an empty table allocates %.1f objects, want 0", n)
	}
	tb.At(0)
	if n := testing.AllocsPerRun(100, func() {
		if tb.Get(5<<chunkBits) != nil {
			t.Fatal("Get on an absent chunk returned a cell")
		}
	}); n != 0 {
		t.Errorf("Get on an absent chunk allocates %.1f objects, want 0", n)
	}
	if tb.Get(5<<chunkBits) != nil {
		t.Error("Get materialized the chunk it looked up")
	}
}

// tableOracle decodes 4-byte records of fuzz input into a stream of At
// writes, At reads and Get reads, and checks every result against a map.
// Keys span 256 chunks (four per cache slot) plus the top of the key
// space, so lookups evict and refill slots and probe absent chunks. A
// record's second byte b1 names the chunk: the (b1/64)-th smallest chunk
// number whose cache slot is b1 mod 64. Its third and fourth give the
// in-chunk offset (b2<<1 | b3&1, reduced modulo chunkLen). So a corpus
// entry names the same cache slots whatever the slot function and the
// chunk size: bytes 0, 64, 128 and 192 are four chunks in slot 0.
func tableOracle(t *testing.T, data []byte) {
	var tb Table[uint32]
	ref := map[uint64]uint32{}
	live := map[uint64]bool{} // materialized chunk numbers
	for ; len(data) >= 4; data = data[4:] {
		op, b1, b2, b3 := data[0], data[1], data[2], data[3]
		n := chunksInSlot[b1%cacheSlots][b1/cacheSlots]
		key := n<<chunkBits | (uint64(b2)<<1|uint64(b3&1))&(chunkLen-1)
		if op&0x80 != 0 {
			key |= 1 << 63
		}
		switch op % 3 {
		case 0:
			v := uint32(op)<<8 | uint32(b3)
			*tb.At(key) = v
			ref[key] = v
			live[key>>chunkBits] = true
		case 1:
			c := tb.Get(key)
			if !live[key>>chunkBits] {
				if c != nil {
					t.Fatalf("Get(%#x) on an absent chunk returned a cell", key)
				}
				continue
			}
			if c == nil {
				t.Fatalf("Get(%#x) on a materialized chunk returned nil", key)
			}
			if *c != ref[key] {
				t.Fatalf("Get(%#x) = %d, want %d", key, *c, ref[key])
			}
		case 2:
			if c := tb.At(key); *c != ref[key] {
				t.Fatalf("At(%#x) = %d, want %d", key, *c, ref[key])
			}
			live[key>>chunkBits] = true
		}
	}
}

// FuzzTable differentially fuzzes the table against a map.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 2, 3})
	// Four chunks in one cache slot, written and read back in turn.
	f.Add([]byte{
		0, 0, 9, 0, 0, 64, 9, 0, 0, 128, 9, 0, 0, 192, 9, 0,
		1, 0, 9, 0, 2, 64, 9, 0, 1, 128, 9, 0, 2, 192, 9, 0,
	})
	f.Fuzz(tableOracle)
}

// TestFuzzCorpusReplay replays the checked-in corpus under
// testdata/fuzz/FuzzTable through the fuzz target's oracle, and fails if
// the corpus is empty.
func TestFuzzCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTable")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty — the replay suite is vacuous")
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			// A "go test fuzz v1" header, then one []byte("...") literal.
			header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
			lit, ok := strings.CutPrefix(strings.TrimSpace(lit), "[]byte(")
			lit, ok2 := strings.CutSuffix(lit, ")")
			if header != "go test fuzz v1" || !ok || !ok2 {
				t.Fatalf("%s is not a one-argument []byte corpus file", name)
			}
			data, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("unquoting %s: %v", name, err)
			}
			tableOracle(t, []byte(data))
		})
	}
}
