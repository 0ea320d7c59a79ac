package gearbox

import (
	"math"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// mustPanic runs fn and fails the test if it returns normally.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestAdvanceRejectsNegativeStep(t *testing.T) {
	var m Machine
	m.advance("a", 10)
	mustPanic(t, "advance(-5)", func() { m.advance("bad", -5) })
	if m.nowNs != 10 {
		t.Fatalf("rejected step moved the clock to %v", m.nowNs)
	}
}

func TestAdvanceRejectsNonFiniteStep(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var m Machine
		mustPanic(t, "advance(non-finite)", func() { m.advance("bad", bad) })
		if m.nowNs != 0 {
			t.Fatalf("rejected step %v moved the clock to %v", bad, m.nowNs)
		}
	}
}

// TestTraceSeesEveryStep: a SetTrace hook sees the six §5 step names once
// per iteration, in order, each at the running clock, which is the previous
// time plus that step's TimeNs.
func TestTraceSeesEveryStep(t *testing.T) {
	m := testMatrix(t, 41)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	type tick struct {
		name string
		at   float64
	}
	var seen []tick
	mach.SetTrace(func(name string, at float64) {
		if at != mach.NowNs() {
			t.Fatalf("%s traced at %v, clock reads %v", name, at, mach.NowNs())
		}
		seen = append(seen, tick{name, at})
	})
	clock := 0.0
	entries := randomFrontier(m.NumRows, 30, 3)
	for it := 0; it < 2; it++ {
		seen = seen[:0]
		next, st, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(stepNames) {
			t.Fatalf("iteration %d traced %d steps, want %d", it, len(seen), len(stepNames))
		}
		for i, s := range seen {
			clock += st.Steps[i].TimeNs
			if s.name != stepNames[i] || s.at != clock {
				t.Fatalf("iteration %d step %d traced (%s, %v), want (%s, %v)", it, i+1, s.name, s.at, stepNames[i], clock)
			}
		}
		if mach.NowNs() != clock {
			t.Fatalf("iteration %d ended at %v, want %v", it, mach.NowNs(), clock)
		}
		if len(next) == 0 {
			break
		}
		entries = next
	}
}
