package vm

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// maxFuzzFrames bounds the frames one fuzz input allocates, and with them
// the reference's memory; maxFuzzOps bounds the records one input runs.
const (
	maxFuzzFrames = 8
	maxFuzzOps    = 64
)

// machineOracle decodes 5-byte records of fuzz input into a stream of
// AllocFrames (runs of 1–3 frames), FreeFrame, Write, WriteU, Read, ReadU,
// ReadWhole and WriteWhole calls, and checks each against a reference
// that backs every frame with its own array from the start. Offsets range over the whole
// page, and a record with its top bit set lands within 16 bytes of the
// page end, so widths 1–8 and short slices often straddle it. Straddling
// accesses, use after free and double free must panic and change nothing.
// WriteWhole must refuse, writing nothing, exactly the frames that no
// Write or WriteU has written since they were allocated; it refuses them
// before it looks at the offset, so a refusal never panics.
func machineOracle(t *testing.T, data []byte) {
	m := NewMachine()
	var ids []FrameID // every frame allocated, freed ones included
	ref := map[FrameID]*[PageSize]byte{}
	written := map[FrameID]bool{} // the live frames Write or WriteU wrote
	var buf [256]byte             // Write's source and Read's destination
	if len(data) > 5*maxFuzzOps {
		data = data[:5*maxFuzzOps]
	}
	for ; len(data) >= 5; data = data[5:] {
		op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
		off := (uint64(b)<<8 | uint64(c)) & PageMask
		if op&0x80 != 0 {
			off = PageSize - 1 - uint64(b%16)
		}
		n := d%8 + 1
		v := mix(uint64(op)<<32 | uint64(a)<<24 | uint64(b)<<16 | uint64(c)<<8 | uint64(d))
		kind := (op & 0x7f) % 8
		if kind >= 6 {
			n = 1 << (d % 4) // ReadWhole and WriteWhole take whole accesses
		}
		if kind == 0 {
			// A run of 1–3 frames, as many as maxFuzzFrames leaves
			// room for. It must follow the last frame handed out, and
			// each of its frames must be live and read as zero.
			k := min(int(a%3)+1, maxFuzzFrames-len(ids))
			if k == 0 {
				continue
			}
			first := m.AllocFrames(k)
			if want := FrameID(len(ids) + 1); first != want {
				t.Fatalf("AllocFrames(%d) = %d, want %d, the frame after the last one handed out", k, first, want)
			}
			for id := first; id < first+FrameID(k); id++ {
				if m.Materialized(id) || m.ReadU(id, 0, 8) != 0 {
					t.Fatalf("frame %d of the run at %d is not a fresh zero frame", id, first)
				}
				ids = append(ids, id)
				ref[id] = new([PageSize]byte)
			}
			continue
		}
		if len(ids) == 0 {
			continue
		}
		id := ids[int(a)%len(ids)]
		page, live := ref[id]
		if kind == 1 {
			if !live {
				if !panics(func() { m.FreeFrame(id) }) {
					t.Fatalf("double free of frame %d did not panic", id)
				}
				continue
			}
			m.FreeFrame(id)
			delete(ref, id)
			delete(written, id)
			continue
		}
		size := uint64(n)
		if kind == 2 || kind == 4 {
			size = uint64(d) // Write and Read move 0–255 bytes
		}
		if kind == 7 && live && !written[id] {
			if m.WriteWhole(id, off, n, v) {
				t.Fatalf("WriteWhole(frame %d, off %d, n %d) wrote a never-written frame", id, off, n)
			}
			if m.Materialized(id) {
				t.Fatalf("WriteWhole materialized frame %d", id)
			}
			continue
		}
		if !live || off+size > PageSize {
			var fn func()
			switch kind {
			case 2:
				fn = func() { m.Write(id, off, buf[:size]) }
			case 3:
				fn = func() { m.WriteU(id, off, n, v) }
			case 4:
				fn = func() { m.Read(id, off, buf[:size]) }
			case 5:
				fn = func() { m.ReadU(id, off, n) }
			case 6:
				fn = func() { m.ReadWhole(id, off, n) }
			default:
				fn = func() { m.WriteWhole(id, off, n, v) }
			}
			if !panics(fn) {
				t.Fatalf("op %d on frame %d (live %v) at off %d size %d did not panic", kind, id, live, off, size)
			}
			continue
		}
		switch kind {
		case 2:
			src := buf[:size]
			for i := range src {
				src[i] = byte(v >> (i % 8 * 8))
			}
			m.Write(id, off, src)
			copy(page[off:], src)
			written[id] = true
		case 3:
			m.WriteU(id, off, n, v)
			refWriteU(page[off:], n, v)
			written[id] = true
		case 4:
			got := buf[:size]
			m.Read(id, off, got)
			if string(got) != string(page[off:off+size]) {
				t.Fatalf("Read(frame %d, off %d, len %d) = % x, want % x", id, off, size, got, page[off:off+size])
			}
		case 5:
			if got, want := m.ReadU(id, off, n), refReadU(page[off:], n); got != want {
				t.Fatalf("ReadU(frame %d, off %d, n %d) = %#x, want %#x", id, off, n, got, want)
			}
		case 6:
			if got, want := m.ReadWhole(id, off, n), refReadU(page[off:], n); got != want {
				t.Fatalf("ReadWhole(frame %d, off %d, n %d) = %#x, want %#x", id, off, n, got, want)
			}
		default:
			if !m.WriteWhole(id, off, n, v) {
				t.Fatalf("WriteWhole(frame %d, off %d, n %d) refused a written frame", id, off, n)
			}
			refWriteU(page[off:], n, v)
		}
	}
	if m.Frames() != len(ref) {
		t.Fatalf("Frames = %d, want %d", m.Frames(), len(ref))
	}
	var got [PageSize]byte
	for _, id := range ids {
		if page, live := ref[id]; live {
			m.Read(id, 0, got[:])
			if got != *page {
				t.Fatalf("frame %d differs from the reference at the end of the stream", id)
			}
		}
	}
}

// FuzzMachine differentially fuzzes the machine against eagerly allocated
// frames.
func FuzzMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 0, 16, 7, 5, 0, 0, 16, 7})
	// Two frames; the second is written at odd widths up to its page end
	// and read back, and the first, never written, is read across its
	// page end (a panic) and from its start.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x83, 1, 2, 0, 2, 0x83, 1, 4, 0, 4, 0x83, 1, 6, 0, 5,
		0x85, 1, 2, 0, 2, 0x85, 0, 2, 0, 7, 4, 0, 0, 0, 255,
	})
	// One frame: a whole-access store to it while it is never written
	// (refused), one past its page end (a panic), a WriteU that gives it
	// its page, then whole-access stores and reads at widths 8, 4, 2 and
	// 1, and a whole-access read past the page end.
	f.Add([]byte{
		0, 0, 0, 0, 0,
		7, 0, 0, 8, 3, 0x87, 0, 2, 0, 3, 3, 0, 0, 0, 0,
		7, 0, 0, 8, 3, 7, 0, 0, 16, 2, 7, 0, 0, 24, 1, 7, 0, 0, 32, 0,
		6, 0, 0, 8, 3, 6, 0, 0, 16, 2, 6, 0, 0, 24, 1, 6, 0, 0, 32, 0,
		0x86, 0, 1, 0, 3,
	})
	// A run of three frames after a single one: the run's middle frame
	// is freed (a read of it then panics), the frames either side of it
	// are written and read, and a run of two follows the first run.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
		1, 2, 0, 0, 0, 3, 1, 0, 8, 7, 3, 3, 0, 8, 7,
		5, 1, 0, 8, 7, 5, 3, 0, 8, 7, 5, 2, 0, 8, 7,
		0, 1, 0, 0, 0, 3, 5, 0, 0, 7, 5, 5, 0, 0, 7,
	})
	f.Fuzz(machineOracle)
}

// TestFuzzCorpusReplay replays the checked-in corpus under
// testdata/fuzz/FuzzMachine through the fuzz target's oracle, and fails if
// the corpus is empty.
func TestFuzzCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMachine")
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
			machineOracle(t, []byte(data))
		})
	}
}
