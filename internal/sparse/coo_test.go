package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCOOAddAndNNZ(t *testing.T) {
	m := NewCOO(4, 5)
	if m.NNZ() != 0 {
		t.Fatalf("empty COO NNZ = %d, want 0", m.NNZ())
	}
	m.Add(0, 0, 1)
	m.Add(3, 4, 2)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestCOOAddOutOfBoundsPanics(t *testing.T) {
	cases := []struct {
		name     string
		row, col int32
	}{
		{"row negative", -1, 0},
		{"row too large", 4, 0},
		{"col negative", 0, -1},
		{"col too large", 0, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d,%d) did not panic", tc.row, tc.col)
				}
			}()
			NewCOO(4, 5).Add(tc.row, tc.col, 1)
		})
	}
}

func TestCSCFromCOOMergesDuplicates(t *testing.T) {
	m := NewCOO(3, 3)
	m.Add(1, 2, 1.5)
	m.Add(1, 2, 2.5)
	m.Add(0, 0, 3)
	got := canonical(m)
	if got.NNZ() != 2 {
		t.Fatalf("NNZ after merge = %d, want 2", got.NNZ())
	}
	for _, e := range got.Entries {
		if e.Row == 1 && e.Col == 2 && e.Val != 4 {
			t.Fatalf("merged value = %v, want 4", e.Val)
		}
	}
}

func TestCSCFromCOODropsCancelledZeros(t *testing.T) {
	m := NewCOO(2, 2)
	m.Add(0, 0, 1)
	m.Add(0, 0, -1)
	m.Add(1, 1, 5)
	got := canonical(m)
	if got.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry must be dropped)", got.NNZ())
	}
	if e := got.Entries[0]; e.Row != 1 || e.Col != 1 || e.Val != 5 {
		t.Fatalf("surviving entry = %+v", e)
	}
}

func TestCOOCloneIsDeep(t *testing.T) {
	m := NewCOO(2, 2)
	m.Add(0, 0, 1)
	c := m.Clone()
	c.Entries[0].Val = 99
	if m.Entries[0].Val != 1 {
		t.Fatal("clone aliases original storage")
	}
}

// randomCOO builds a random matrix with up to nnz entries (duplicates allowed).
func randomCOO(rng *rand.Rand, rows, cols int32, nnz int) *COO {
	m := NewCOO(rows, cols)
	for i := 0; i < nnz; i++ {
		m.Add(rng.Int31n(rows), rng.Int31n(cols), float32(rng.Intn(9)+1))
	}
	return m
}

// canonical is m with duplicates merged in source order, exact zeros
// dropped and entries in (col,row) order.
func canonical(m *COO) *COO { return CSCFromCOO(m).ToCOO() }

func cscEqual(a, b *CSC) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	return a.Equal(b)
}

func TestQuickCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		once := canonical(randomCOO(rng, 1+rng.Int31n(16), 1+rng.Int31n(16), rng.Intn(64)))
		return slices.Equal(canonical(once).Entries, once.Entries)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
