package partition

import (
	"runtime"
	"slices"
	"testing"

	"gearbox/internal/sparse"
)

// planEqual deep-compares everything a Plan derives from the matrix: the
// relabeled arrays, permutation, ranges, ownership, the long layout and
// both per-SPU view sets.
func planEqual(t *testing.T, a, b *Plan) {
	t.Helper()
	if !slices.Equal(a.Matrix.Offsets, b.Matrix.Offsets) ||
		!slices.Equal(a.Matrix.IndexesInt32(), b.Matrix.IndexesInt32()) ||
		!slices.Equal(a.Matrix.Values, b.Matrix.Values) {
		t.Fatal("relabeled matrices differ")
	}
	if !slices.Equal(a.Perm.New, b.Perm.New) || !slices.Equal(a.Perm.Old, b.Perm.Old) {
		t.Fatal("permutations differ")
	}
	if a.LastLong != b.LastLong || !slices.Equal(a.Ranges, b.Ranges) || !slices.Equal(a.OwnerOf, b.OwnerOf) {
		t.Fatal("ranges or ownership differ")
	}
	if !slices.Equal(a.LongEntries, b.LongEntries) || !slices.Equal(a.LongPieces, b.LongPieces) ||
		!slices.Equal(a.LongPieceStart, b.LongPieceStart) {
		t.Fatal("long layouts differ")
	}
	viewsEqual := func(x, y [][][]sparse.Entry) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatal("view SPU counts differ")
		}
		for k := range x {
			if !slices.EqualFunc(x[k], y[k], slices.Equal) {
				t.Fatalf("SPU %d: views differ", k)
			}
		}
	}
	viewsEqual(a.LongFrags, b.LongFrags)
	viewsEqual(a.LongRowSpill, b.LongRowSpill)
}

func TestBuildWorkersEquivalent(t *testing.T) {
	m := powerLawMatrix(t, 10, 31)
	for _, cfg := range []Config{
		DefaultConfig(),
		{Scheme: Hybrid, Placement: Distributed, LongFrac: 0.02, Balance: NNZBalanced, Seed: 5},
		{Scheme: ColumnOriented, Placement: Shuffled, Seed: 7},
	} {
		serial := cfg
		serial.Workers = 1
		want, err := Build(m, smallGeo(), serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
			par := cfg
			par.Workers = w
			got, err := Build(m, smallGeo(), par)
			if err != nil {
				t.Fatal(err)
			}
			planEqual(t, got, want)
		}
	}
}

// TestBuildMatchesPreRefactorRoundRobin pins the spill round-robin contract:
// the destination of the i-th long-row entry (scanning long columns in
// order, rows ascending within a column) is i mod NumSPUs — the behavior of
// the old serial global counter that the sharded rebuild must reproduce.
func TestBuildMatchesPreRefactorRoundRobin(t *testing.T) {
	m := powerLawMatrix(t, 9, 37)
	cfg := DefaultConfig()
	cfg.LongFrac = 0.05 // enough long vertices that long rows hit long columns
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr := 0
	for c := int32(0); c <= p.LastLong; c++ {
		rows, vals := p.Matrix.Col(c)
		for i, r := range rows.All() {
			if p.OwnerOf[r] >= 0 {
				continue
			}
			k := rr % p.NumSPUs
			rr++
			found := false
			for _, pc := range p.LongPiecesOf(c) {
				if int(pc.SPU) != k {
					continue
				}
				for _, e := range p.LongEntries[pc.Mid:pc.Hi] {
					if e.Row == r && e.Val == vals[i] {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("spill entry (%d,%d) not at round-robin SPU %d", r, c, k)
			}
		}
	}
	if rr == 0 {
		t.Skip("matrix produced no long-row spill entries")
	}
}
