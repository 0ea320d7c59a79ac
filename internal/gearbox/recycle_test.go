package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// sharesBacking reports whether two entry slices alias the same array.
func sharesBacking(a, b []FrontierEntry) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// frontierShares reports whether any bucket of a aliases any bucket of b.
func frontierShares(a, b *Frontier) bool {
	if sharesBacking(a.Long, b.Long) {
		return true
	}
	for _, la := range a.Local {
		for _, lb := range b.Local {
			if sharesBacking(la, lb) {
				return true
			}
		}
	}
	return false
}

// TestRecycledFrontierNeverAliasesReturned is the recycle contract's aliasing
// half: after a frontier is recycled and its shell reused for a later result,
// the frontier still held by the caller must not share backing arrays with
// the newly returned one — otherwise the machine would be mutating entries
// the caller is still reading.
func TestRecycledFrontierNeverAliasesReturned(t *testing.T) {
	m := testMatrix(t, 41)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	entries := randomFrontier(m.NumRows, 60, 3)

	f, err := mach.DistributeFrontier(entries)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := mach.Iterate(f, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mach.Recycle(f)
	held := next // caller keeps this result alive, never recycles it
	heldCopy := held.Entries()

	// Drive two more iterations; their frontiers draw f's shell (and any
	// fresh ones) from the pool. None may alias the held frontier.
	in := heldCopy
	for i := 0; i < 2; i++ {
		f2, err := mach.DistributeFrontier(in)
		if err != nil {
			t.Fatal(err)
		}
		next2, _, err := mach.Iterate(f2, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if f2 != held && frontierShares(held, f2) {
			t.Fatal("distributed frontier aliases a frontier still held by the caller")
		}
		if next2 != held && frontierShares(held, next2) {
			t.Fatal("returned frontier aliases a frontier still held by the caller")
		}
		mach.Recycle(f2)
		in = next2.Entries()
		mach.Recycle(next2)
		if len(in) == 0 {
			break
		}
	}
	if !reflect.DeepEqual(heldCopy, held.Entries()) {
		t.Fatal("held frontier's entries changed while the machine iterated")
	}
}

// TestRecycleGuards pins Recycle's no-op cases: nil, a frontier shaped for a
// different machine, and — the important one — double-Recycle, which must
// not enqueue the same shell twice (two later callers would receive aliased
// arrays).
func TestRecycleGuards(t *testing.T) {
	m := testMatrix(t, 42)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})

	mach.Recycle(nil)
	mach.Recycle(&Frontier{}) // wrong shape: not built by this machine

	f, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	mach.Recycle(f)
	mach.Recycle(f) // double-recycle must be a no-op
	a := mach.getFrontier()
	b := mach.getFrontier()
	if a == b {
		t.Fatal("double-Recycle handed the same frontier shell to two callers")
	}
	if a.pooled || b.pooled {
		t.Fatal("frontier left the pool still marked pooled")
	}
}
