package guest

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// maxFuzzData bounds the data segment one fuzz input declares, and with it
// the reference image; maxFuzzOps bounds the records one input runs.
const (
	maxFuzzData = 64 * vm.PageSize
	maxFuzzOps  = 64
)

// fuzzAligns are the alignments a Global record picks from; 0 means the
// builder's default of 8.
var fuzzAligns = [...]int{0, 1, 3, 8, 64, vm.PageSize}

// imageOracle decodes 4-byte records of fuzz input into Global, GlobalU64
// and Init calls. It applies each to an isa.Builder and to a dense
// reference image that follows the layout of a builder that keeps every
// byte: pad with zeros to the alignment, then append the global's zeros.
// Every returned address must match the reference's. It then loads the
// program with NewProcess and compares each page of the data segment
// with the reference, zero-padded to whole pages. A page must have a page
// of its own exactly when its reference bytes are not all zero.
func imageOracle(t *testing.T, data []byte) {
	b := isa.NewBuilder("fuzz-image")
	var ref []byte
	var globals []uint64
	if len(data) > 4*maxFuzzOps {
		data = data[:4*maxFuzzOps]
	}
	for ; len(data) >= 4; data = data[4:] {
		op, x, y, z := data[0], data[1], data[2], data[3]
		switch op % 3 {
		case 0: // Global(x << (y%13) bytes, aligned to fuzzAligns[z])
			size, align := int(x)<<(y%13), fuzzAligns[int(z)%len(fuzzAligns)]
			a := align
			if a == 0 {
				a = 8
			}
			pad := (a - len(ref)%a) % a
			if len(ref)+pad+size > maxFuzzData {
				continue
			}
			ref = append(ref, make([]byte, pad+size)...)
			want := isa.DataBase + uint64(len(ref)-size)
			if got := b.Global(size, align); got != want {
				t.Fatalf("Global(%d, %d) = %#x, want %#x", size, align, got, want)
			}
			globals = append(globals, want)
		case 1: // GlobalU64 of a value that is zero when x, y and z all are
			pad := (8 - len(ref)%8) % 8
			if len(ref)+pad+8 > maxFuzzData {
				continue
			}
			v := uint64(x)<<56 | uint64(y)<<8 | uint64(z)
			ref = append(ref, make([]byte, pad+8)...)
			want := isa.DataBase + uint64(len(ref)-8)
			for i := range 8 {
				ref[len(ref)-8+i] = byte(v >> (8 * i))
			}
			if got := b.GlobalU64(v); got != want {
				t.Fatalf("GlobalU64 = %#x, want %#x", got, want)
			}
			globals = append(globals, want)
		default: // Init up to 63 bytes at offset y past global x, clipped to the segment
			if len(globals) == 0 {
				continue
			}
			off := globals[int(x)%len(globals)] - isa.DataBase + uint64(y)
			if off > uint64(len(ref)) {
				continue
			}
			init := make([]byte, min(uint64(z%64), uint64(len(ref))-off))
			if z&0x80 == 0 { // else all zeros
				for i := range init {
					init[i] = byte(int(x) + 7*i + 1)
				}
			}
			copy(ref[off:], init)
			b.Init(isa.DataBase+off, init)
		}
	}
	prog, err := b.Halt().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if prog.DataSize != uint64(len(ref)) || !bytes.Equal(prog.Data, ref[:len(prog.Data)]) {
		t.Fatalf("DataSize %d with a %d-byte prefix, want %d bytes of the reference", prog.DataSize, len(prog.Data), len(ref))
	}
	p, err := NewProcess(vm.NewMachine(), prog)
	if err != nil {
		t.Fatal(err)
	}
	seg := p.FindVMA(isa.DataBase)
	if want := max(1, (len(ref)+vm.PageSize-1)/vm.PageSize); seg == nil || seg.Pages != want {
		t.Fatalf("data VMA %v, want %d pages", seg, want)
	}
	ref = append(ref, make([]byte, seg.Pages*vm.PageSize-len(ref))...)
	var got, zero [vm.PageSize]byte
	for i := range seg.Pages {
		f := seg.Backing.Frame(i)
		want := ref[i*vm.PageSize : (i+1)*vm.PageSize]
		p.M.Read(f, 0, got[:])
		if !bytes.Equal(got[:], want) {
			t.Fatalf("data page %d differs from the reference", i)
		}
		if own := !bytes.Equal(want, zero[:]); p.M.Materialized(f) != own {
			t.Fatalf("data page %d: materialized %v, want %v", i, !own, own)
		}
	}
}

// FuzzImage differentially fuzzes the sparse data image, from Builder to
// loaded frames, against a dense reference image.
func FuzzImage(f *testing.F) {
	// A page-aligned zero global between two initialized words, and an
	// Init that spans the end of the first into the alignment padding.
	f.Add([]byte{1, 0x11, 0x22, 0x33, 0, 4, 12, 5, 1, 0, 0, 7, 2, 0, 4, 10})
	// Odd alignments, a zero GlobalU64 and an all-zero Init over an
	// initialized word.
	f.Add([]byte{
		0, 3, 0, 2, 1, 0, 0, 0, 0, 200, 3, 1, 1, 9, 9, 9,
		2, 1, 0, 0x88, 2, 3, 2, 40, 0, 1, 12, 5, 2, 5, 100, 30,
	})
	f.Fuzz(imageOracle)
}
