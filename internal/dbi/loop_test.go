package dbi

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// TestQuantumBoundariesExact pins the scheduling quantum: one CPU-bound
// thread whose 55-instruction loop runs past the 48-instruction block cap,
// so one of its blocks ends without a control transfer, and quanta expire
// mid-block, at block ends and on branches. Every quantum but the last
// retires exactly Quantum instructions.
func TestQuantumBoundariesExact(t *testing.T) {
	b := isa.NewBuilder("quanta")
	g := b.GlobalU64(0)
	b.MovImm(isa.R1, int64(g))
	b.LoopN(isa.R2, 100, func(b *isa.Builder) {
		b.Add(isa.R3, isa.R3, isa.R2)
		b.Store(isa.R1, 0, isa.R3)
		for range 48 {
			b.AddImm(isa.R4, isa.R4, 1)
		}
		b.Load(isa.R5, isa.R1, 0)
		b.Xor(isa.R6, isa.R5, isa.R4)
	})
	b.Halt()
	prog := b.MustFinish()

	for _, q := range []uint64{1, 7, 48, 1000} {
		p, err := guest.NewProcess(vm.NewMachine(), prog)
		if err != nil {
			t.Fatal(err)
		}
		e := New(p, nil, nil, &stats.Clock{}, Config{Quantum: q, ChargeDBI: true})
		var marks []uint64
		e.OnQuantum = func() error {
			marks = append(marks, e.C.Instructions)
			return nil
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		total := res.Counters.Instructions
		if uint64(len(marks)) != res.Counters.Quanta || total < 5500 {
			t.Fatalf("quantum %d: %d OnQuantum calls, %d quanta, %d instructions", q, len(marks), res.Counters.Quanta, total)
		}
		marks = append(marks, total)
		for i := 1; i < len(marks)-1; i++ {
			if got := marks[i] - marks[i-1]; got != q {
				t.Fatalf("quantum %d: quantum %d of %d retired %d instructions", q, i, len(marks)-1, got)
			}
		}
		if last := marks[len(marks)-1] - marks[len(marks)-2]; last == 0 || last > q {
			t.Errorf("quantum %d: last quantum retired %d instructions", q, last)
		}
	}
}

// mixedProgram builds a two-thread program that retires every kind of
// instruction: each ALU op, indirect and absolute loads and stores, Jmp,
// Br and BrImm, a lock pair, the thread create and join syscalls, and
// Halt.
func mixedProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("mixed")
	arr := b.GlobalArray(8)
	sum := b.GlobalU64(0)
	b.MovImm(isa.R5, 3)
	b.ThreadCreate("worker", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R1, int64(arr))
	b.LoopN(isa.R2, 40, func(b *isa.Builder) {
		b.MovImm(isa.R7, 7)
		b.And(isa.R3, isa.R2, isa.R7)
		b.Shl(isa.R3, isa.R3, 3)
		b.Add(isa.R4, isa.R1, isa.R3)
		b.Load(isa.R6, isa.R4, 0)
		b.Mul(isa.R8, isa.R2, isa.R2)
		b.Sub(isa.R8, isa.R8, isa.R7)
		b.Div(isa.R8, isa.R8, isa.R7)
		b.Xor(isa.R6, isa.R6, isa.R8)
		b.Or(isa.R6, isa.R6, isa.R2)
		b.Shr(isa.R6, isa.R6, 1)
		b.Store(isa.R4, 0, isa.R6)
		b.Br(isa.NE, isa.R3, isa.R7, "main.skip")
		b.Nop()
		b.Label("main.skip")
		b.Lock(1)
		b.LoadAbs(isa.R10, sum)
		b.AddImm(isa.R10, isa.R10, 1)
		b.StoreAbs(sum, isa.R10)
		b.Unlock(1)
	})
	b.ThreadJoin(isa.R9)
	b.Halt()

	b.Label("worker")
	b.LoopN(isa.R2, 30, func(b *isa.Builder) {
		b.Lock(1)
		b.LoadAbs(isa.R10, sum)
		b.Add(isa.R10, isa.R10, isa.R0)
		b.StoreAbs(sum, isa.R10)
		b.Unlock(1)
		b.Mov(isa.R11, isa.R10)
	})
	b.Halt()
	return b.MustFinish()
}

// TestOnRetireContract pins the OnRetire hook against the batched
// accounting: a no-op hook fires once per retired instruction, always
// with t.PC at the retiring pc, and attaching it changes no counter, no
// cycle and no thread's instruction count. Quantum 7 preempts the
// threads mid-block and makes them contend for the lock.
func TestOnRetireContract(t *testing.T) {
	prog := mixedProgram(t)
	for _, q := range []uint64{7, 1000} {
		runOnce := func(hook func(*guest.Thread, isa.PC, isa.Instr)) (*Result, []uint64) {
			p, err := guest.NewProcess(vm.NewMachine(), prog)
			if err != nil {
				t.Fatal(err)
			}
			e := New(p, nil, &planTool{}, &stats.Clock{}, Config{Quantum: q, ChargeDBI: true})
			e.OnRetire = hook
			res, err := e.Run()
			if err != nil {
				t.Fatalf("quantum %d: %v", q, err)
			}
			var per []uint64
			for _, id := range p.Threads() {
				per = append(per, p.Thread(id).Instructions)
			}
			return res, per
		}
		want, wantPer := runOnce(nil)
		var calls uint64
		got, gotPer := runOnce(func(th *guest.Thread, pc isa.PC, _ isa.Instr) {
			calls++
			if th.PC != pc {
				t.Errorf("quantum %d: OnRetire at pc %d sees t.PC %d", q, pc, th.PC)
			}
		})
		if calls != got.Counters.Instructions {
			t.Errorf("quantum %d: OnRetire fired %d times for %d instructions", q, calls, got.Counters.Instructions)
		}
		if got.Counters != want.Counters || got.Cycles != want.Cycles {
			t.Errorf("quantum %d: with OnRetire %+v, %d cycles; without %+v, %d cycles", q, got.Counters, got.Cycles, want.Counters, want.Cycles)
		}
		if len(gotPer) != 2 || gotPer[0] != wantPer[0] || gotPer[1] != wantPer[1] {
			t.Errorf("quantum %d: per-thread instructions %v with OnRetire, %v without", q, gotPer, wantPer)
		}
		if want.Counters.InstrumentedExecs == 0 || want.Counters.Quanta < 2 {
			t.Errorf("quantum %d: run too small to pin anything: %+v", q, want.Counters)
		}
	}
}

// pcTool attaches a PreAccess to every memory instruction that checks
// what the thread's PC reads during the callback.
type pcTool struct {
	p     *guest.Process
	t     *testing.T
	calls int
}

func (pt *pcTool) Instrument(_ isa.PC, in isa.Instr) *Plan {
	if !in.Op.IsMemRef() {
		return nil
	}
	return &Plan{PreAccess: func(tid guest.TID, pc isa.PC, addr uint64, _ uint8, _ bool) uint64 {
		pt.calls++
		if got := pt.p.Thread(tid).PC; got != pc {
			pt.t.Errorf("PreAccess at pc %d: thread %d's PC reads %d", pc, tid, got)
		}
		return addr
	}}
}

// TestPreAccessSeesThreadPC pins that a plan callback reading its
// thread's PC sees the pc of the access it instruments, on both threads
// and at every position in a block.
func TestPreAccessSeesThreadPC(t *testing.T) {
	p, err := guest.NewProcess(vm.NewMachine(), mixedProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	tool := &pcTool{p: p, t: t}
	res, err := New(p, nil, tool, &stats.Clock{}, Config{Quantum: 7, ChargeDBI: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(tool.calls) != res.Counters.InstrumentedExecs || tool.calls == 0 {
		t.Errorf("PreAccess ran %d times for %d instrumented executions", tool.calls, res.Counters.InstrumentedExecs)
	}
}
