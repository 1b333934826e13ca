package isa

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestGlobalLayout pins the data segment's layout: a mix of Global,
// GlobalU64, GlobalArray and Init returns the addresses the builder
// returned when it kept the whole image, zeros included. The image keeps
// only the prefix up to the last initialized byte.
func TestGlobalLayout(t *testing.T) {
	b := NewBuilder("layout")
	got := []uint64{
		b.Global(3, 1),
		b.GlobalU64(0x1122334455667788),
		b.Global(4096, 4096),
		b.GlobalArray(3),
		b.Global(5, 16),
		b.GlobalU64(0),
		b.Global(1, 0),
		b.Global(10, 3),
		b.Global(0, 4096),
		b.GlobalU64(7),
		b.Global(2, 6),
	}
	want := []uint64{
		0x1000_0000, 0x1000_0008, 0x1000_1000, 0x1000_2000, 0x1000_2020, 0x1000_2028,
		0x1000_2030, 0x1000_2031, 0x1000_3000, 0x1000_3000, 0x1000_300c,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("global %d at %#x, want %#x", i, got[i], want[i])
		}
	}
	b.Init(got[0], []byte("abc")).Init(got[7], []byte("0123456789"))
	p := b.Halt().MustFinish()
	if p.DataSize != 0x300e {
		t.Errorf("DataSize = %#x, want 0x300e", p.DataSize)
	}
	if len(p.Data) != 0x3008 {
		t.Errorf("len(Data) = %#x, want 0x3008: the prefix ends with GlobalU64(7)", len(p.Data))
	}
	img := make([]byte, p.DataSize)
	copy(img, p.Data)
	for _, w := range []struct {
		addr uint64
		val  string
	}{
		{got[0], "abc"},
		{got[1], "\x88\x77\x66\x55\x44\x33\x22\x11"},
		{got[5], "\x00\x00\x00\x00\x00\x00\x00\x00"},
		{got[7], "0123456789"},
		{got[9], "\x07\x00\x00\x00\x00\x00\x00\x00"},
	} {
		off := w.addr - DataBase
		if s := string(img[off : off+uint64(len(w.val))]); s != w.val {
			t.Errorf("image at %#x = %q, want %q", w.addr, s, w.val)
		}
	}
}

// TestGlobalErrors: a negative size, a global past the data segment and
// an Init outside the allocated globals are Finish errors.
func TestGlobalErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(b *Builder)
		wantErr string
	}{
		{"negative", func(b *Builder) { b.Global(-1, 8) }, "negative size -1"},
		{"past-heap", func(b *Builder) { b.Global(int(HeapBase-DataBase)+1, 8) }, "overruns"},
		{"fills-segment", func(b *Builder) { b.Global(int(HeapBase-DataBase), 8) }, ""},
		{"second-past-heap", func(b *Builder) { b.Global(int(HeapBase-DataBase), 8); b.Global(1, 1) }, "overruns"},
		{"init-past-end", func(b *Builder) { b.Init(b.Global(8, 8)+1, make([]byte, 8)) }, "outside"},
		{"init-below-base", func(b *Builder) { b.Global(8, 8); b.Init(DataBase-1, []byte{1}) }, "outside"},
		{"init-empty-at-end", func(b *Builder) { b.Init(b.Global(8, 8)+8, nil) }, ""},
	} {
		b := NewBuilder(tc.name)
		tc.build(b)
		_, err := b.Halt().Finish()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestZeroGlobalCostsNoImage: declaring a 1 MiB zero global allocates
// under 4 KiB, because the image holds no zeros past its last
// initialized byte. A dense image allocates the whole MiB.
func TestZeroGlobalCostsNoImage(t *testing.T) {
	build := func() *Program {
		b := NewBuilder("big")
		b.Global(1<<20, 4096)
		return b.Halt().MustFinish()
	}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := build()
		runtime.ReadMemStats(&after)
		if p.DataSize != 1<<20 || len(p.Data) != 0 {
			t.Fatalf("DataSize %d, len(Data) %d; want %d and 0", p.DataSize, len(p.Data), 1<<20)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("building a 1 MiB zero global allocates %d bytes", least)
	if least >= 4<<10 {
		t.Errorf("building a 1 MiB zero global allocates %d bytes, want under %d", least, 4<<10)
	}
}

// TestInitExtendsPrefix: Init past the current prefix zero-fills the gap
// and Init inside it overwrites in place.
func TestInitExtendsPrefix(t *testing.T) {
	b := NewBuilder("init")
	a := b.Global(64, 8)
	b.Init(a+32, []byte{1, 2}).Init(a+8, []byte{3})
	p := b.Halt().MustFinish()
	want := make([]byte, 34)
	want[8], want[32], want[33] = 3, 1, 2
	if !bytes.Equal(p.Data, want) || p.DataSize != 64 {
		t.Errorf("Data = %v (DataSize %d), want %v (64)", p.Data, p.DataSize, want)
	}
}
