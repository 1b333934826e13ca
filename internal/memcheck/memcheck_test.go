package memcheck_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memcheck"
	"repro/internal/pagetable"
	"repro/internal/parsec"
	"repro/internal/workload"
)

// run hosts the checker in a fully instrumented core.System and runs prog.
// The checker comes back with the run's error: an invalid access kills
// the guest, and the reports made up to the crash remain.
func run(t *testing.T, prog *isa.Program) (*memcheck.Checker, *core.Result, error) {
	t.Helper()
	s, err := core.NewSystem(prog, core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(memcheck.Kind))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	return s.Analysis(memcheck.Kind).(*memcheck.Checker), res, err
}

// TestCleanProgramNoReports: a program that initializes before reading
// produces no reports.
func TestCleanProgramNoReports(t *testing.T) {
	b := isa.NewBuilder("clean")
	x := b.GlobalU64(0)
	b.MovImm(isa.R4, 9)
	b.StoreAbs(x, isa.R4)
	b.LoadAbs(isa.R0, x)
	b.Syscall(isa.SysExit)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, res, err := run(t, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 9 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	if len(c.Reports()) != 0 {
		t.Errorf("clean program reported: %v", c.Reports())
	}
	if c.C.Loads == 0 || c.C.Stores == 0 {
		t.Error("accesses not counted")
	}
}

// TestUninitializedMmapRead: reading freshly mmapped memory before writing
// it is an uninitialized read (static data is loader-initialized and fine).
func TestUninitializedMmapRead(t *testing.T) {
	b := isa.NewBuilder("uninit")
	// mmap a page, read from it before writing.
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.Load(isa.R5, isa.R4, 16) // uninitialized!
	b.Store(isa.R4, 24, isa.R5)
	b.Load(isa.R6, isa.R4, 24) // now defined: no report
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := run(t, prog)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %v, want exactly the one uninitialized read", reps)
	}
	if reps[0].Kind != memcheck.UninitializedRead {
		t.Errorf("kind = %v", reps[0].Kind)
	}
	if c.C.Uninit == 0 {
		t.Error("uninit counter zero")
	}
}

// TestUseAfterUnmap: touching memory after munmap is an invalid access
// (and kills the guest, as it would natively).
func TestUseAfterUnmap(t *testing.T) {
	b := isa.NewBuilder("uaf")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.MovImm(isa.R5, 1)
	b.Store(isa.R4, 0, isa.R5)
	b.Mov(isa.R0, isa.R4)
	b.Syscall(isa.SysMunmap)
	b.Load(isa.R6, isa.R4, 0) // use after unmap
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := run(t, prog)
	if err == nil {
		t.Fatal("use-after-unmap did not kill the guest")
	}
	reps := c.Reports()
	if len(reps) != 1 || reps[0].Kind != memcheck.InvalidAccess {
		t.Fatalf("reports = %v, want one invalid access", reps)
	}
}

// TestCrashKeepsEarlierReports: an uninitialized read followed by a
// use-after-unmap. Run returns the fault, and the checker the system
// hosts still reports both errors.
func TestCrashKeepsEarlierReports(t *testing.T) {
	b := isa.NewBuilder("audit")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.Load(isa.R5, isa.R4, 128) // uninitialized
	b.Mov(isa.R0, isa.R4)
	b.Syscall(isa.SysMunmap)
	b.Load(isa.R6, isa.R4, 0) // use after unmap
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	s, err := core.NewSystem(b.MustFinish(), core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(memcheck.Kind))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("use-after-unmap did not kill the guest")
	}
	f := s.Analysis(memcheck.Kind).Report().(*memcheck.Findings)
	if len(f.Reports) != 2 || f.Reports[0].Kind != memcheck.UninitializedRead ||
		f.Reports[1].Kind != memcheck.InvalidAccess {
		t.Errorf("reports after the crash = %v, want the uninitialized read and the invalid access", f.Strings())
	}
}

// TestWildPointer: an access far outside every mapping is invalid.
func TestWildPointer(t *testing.T) {
	b := isa.NewBuilder("wild")
	b.MovImm(isa.R4, 0x0000_4444_0000_0000)
	b.Load(isa.R5, isa.R4, 0)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := run(t, prog)
	if err == nil {
		t.Fatal("wild access did not kill the guest")
	}
	if c.C.Invalid == 0 {
		t.Error("invalid access not counted")
	}
}

// TestStackIsDefined: fresh stacks load as defined (ABI zero-fill).
func TestStackIsDefined(t *testing.T) {
	b := isa.NewBuilder("stack")
	b.Load(isa.R4, isa.SP, -64) // never written, but stack: defined
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := run(t, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reports()) != 0 {
		t.Errorf("stack read reported: %v", c.Reports())
	}
}

// TestDedupPerPC: a loop reading uninitialized memory reports once, not
// per iteration.
func TestDedupPerPC(t *testing.T) {
	b := isa.NewBuilder("dedup")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.LoopN(isa.R2, 50, func(b *isa.Builder) {
		b.Load(isa.R5, isa.R4, 8)
	})
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := run(t, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Reports()); got != 1 {
		t.Errorf("reports = %d, want 1 (deduplicated)", got)
	}
	if c.C.Uninit != 50 {
		t.Errorf("uninit count = %d, want 50 (every occurrence counted)", c.C.Uninit)
	}
}

func TestReportString(t *testing.T) {
	r := memcheck.Report{Kind: memcheck.InvalidAccess, TID: 2, PC: 5, Addr: 0x1000, Size: 8, Write: true}
	if r.String() == "" || memcheck.InvalidAccess.String() != "invalid access" ||
		memcheck.UninitializedRead.String() != "uninitialized read" {
		t.Error("report formatting broken")
	}
}

// BenchmarkMemcheck measures the Umbra-hosted memory checker — the
// conservative every-access shadow tool whose cost class Figure 5's
// FastTrack bars represent.
func BenchmarkMemcheck(b *testing.B) {
	bench, err := parsec.ByName("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	bench = bench.WithScale(0.5)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(memcheck.Kind)
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
