package core

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/isa"
)

// TestInstrumentSharesPlans pins that a re-JIT builds no plan: every
// instrumented instruction of one kind gets the same *dbi.Plan — one for
// direct and one for indirect instructions under Aikido, one for every
// memory instruction under full instrumentation.
func TestInstrumentSharesPlans(t *testing.T) {
	b := isa.NewBuilder("plans")
	g := b.Global(4096, 4096)
	for i := int64(0); i < 2; i++ {
		b.MovImm(isa.R5, i)
		b.ThreadCreate("w", isa.R5)
		b.Mov(isa.R9+isa.Reg(i), isa.R0)
	}
	for i := int64(0); i < 2; i++ {
		b.Mov(isa.R8, isa.R9+isa.Reg(i))
		b.ThreadJoin(isa.R8)
	}
	b.Halt()
	b.Label("w")
	b.MovImm(isa.R4, int64(g))
	b.MovImm(isa.R3, 1)
	b.LoopN(isa.R2, 20, func(b *isa.Builder) {
		b.StoreAbs(g, isa.R3)
		b.LoadAbs(isa.R6, g+8)
		b.Store(isa.R4, 16, isa.R3)
		b.Load(isa.R6, isa.R4, 24)
	})
	b.Halt()
	prog := b.MustFinish()

	plans := func(mode Mode, instrument func(*System, isa.PC, isa.Instr) *dbi.Plan) map[bool][]*dbi.Plan {
		t.Helper()
		s, err := NewSystem(prog, DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		byKind := map[bool][]*dbi.Plan{}
		for pc, in := range prog.Code {
			if p := instrument(s, isa.PC(pc), in); p != nil {
				byKind[in.Op.IsDirect()] = append(byKind[in.Op.IsDirect()], p)
			}
		}
		return byKind
	}
	same := func(what string, ps []*dbi.Plan) {
		t.Helper()
		if len(ps) < 2 {
			t.Fatalf("%s: %d instrumented instructions, want at least 2", what, len(ps))
		}
		for _, p := range ps[1:] {
			if p != ps[0] {
				t.Errorf("%s: instructions of one kind got distinct plans", what)
				return
			}
		}
	}

	aikido := plans(ModeAikidoFastTrack, func(s *System, pc isa.PC, in isa.Instr) *dbi.Plan {
		return s.SD.Instrument(pc, in)
	})
	same("aikido direct", aikido[true])
	same("aikido indirect", aikido[false])
	if aikido[true][0] == aikido[false][0] {
		t.Error("aikido: direct and indirect instructions share a plan")
	}

	full := plans(ModeFastTrackFull, func(s *System, pc isa.PC, in isa.Instr) *dbi.Plan {
		return s.Engine.Tool.Instrument(pc, in)
	})
	same("full", append(full[true], full[false]...))
}
