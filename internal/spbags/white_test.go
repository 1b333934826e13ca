package spbags

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRaceStringFormat(t *testing.T) {
	r := Race{Addr: 0x1000, Prev: access{task: 2, pc: 10}, Cur: access{task: 3, pc: 20},
		PrevWrite: true, CurWrite: false}
	s := r.String()
	for _, want := range []string{"0x1000", "write", "read", "task 2", "task 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("race string %q missing %q", s, want)
		}
	}
}

// TestMisuseDetection: structural violations panic rather than corrupt the
// bags.
func TestMisuseDetection(t *testing.T) {
	d := New(&stats.Clock{})
	d.OnFork(1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double fork not detected")
			}
		}()
		d.OnFork(1, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("exit of unknown task not detected")
			}
		}()
		d.OnExit(99)
	}()
}
