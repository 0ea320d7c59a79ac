package sparse

import (
	"math/rand"
	"testing"
)

// TestWidthSelectionBoundary pins the 16/32-bit storage decision to the
// exact row count where uint16 stops being able to hold every row index.
func TestWidthSelectionBoundary(t *testing.T) {
	cases := []struct {
		rows     int32
		wantBits int
	}{
		{1, 16},
		{narrowRowLimit, 16},     // rows 0..65535 all fit uint16
		{narrowRowLimit + 1, 32}, // row 65536 would not
	}
	for _, tc := range cases {
		m := NewCOO(tc.rows, 2)
		m.Add(0, 0, 1)
		m.Add(tc.rows-1, 1, 2)
		c := CSCFromCOO(m)
		if c.IndexBits() != tc.wantBits {
			t.Fatalf("rows=%d: IndexBits=%d, want %d", tc.rows, c.IndexBits(), tc.wantBits)
		}
		if c.Index(1) != tc.rows-1 {
			t.Fatalf("rows=%d: top row index %d, want %d", tc.rows, c.Index(1), tc.rows-1)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("rows=%d: %v", tc.rows, err)
		}
	}
}

// TestForceWideEquivalence: widening storage must not change any observable
// content — Equal, Validate, column views, row lengths, permutations.
func TestForceWideEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := canonical(randomCOO(rng, 300, 200, 4000))
	narrow := CSCFromCOO(m)
	if narrow.IndexBits() != 16 {
		t.Fatalf("300-row matrix stored %d-bit", narrow.IndexBits())
	}
	wide := CSCFromCOO(m)
	wide.ForceWide()
	if wide.IndexBits() != 32 {
		t.Fatal("ForceWide left 16-bit storage")
	}
	if !narrow.Equal(wide) || !wide.Equal(narrow) {
		t.Fatal("widening changed the matrix")
	}
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	for col := int32(0); col < narrow.NumCols; col++ {
		nr, nv := narrow.Col(col)
		wr, wv := wide.Col(col)
		if nr.Len() != wr.Len() {
			t.Fatalf("col %d: lengths diverge", col)
		}
		for i := 0; i < nr.Len(); i++ {
			if nr.At(i) != wr.At(i) || nv[i] != wv[i] {
				t.Fatalf("col %d entry %d diverges", col, i)
			}
		}
	}
	ln, lw := RowLengths(narrow), RowLengths(wide)
	for i := range ln {
		if ln[i] != lw[i] {
			t.Fatalf("row length %d diverges: %d vs %d", i, ln[i], lw[i])
		}
	}
}

// TestApplyPermutationWidthEquivalence: the relabel path has separate 16-
// and 32-bit loops; both must produce the same matrix.
func TestApplyPermutationWidthEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	n := int32(257)
	m := canonical(randomCOO(rng, n, n, 3000))
	narrow := CSCFromCOO(m)
	wide := CSCFromCOO(m)
	wide.ForceWide()

	perm := shuffledPerm(rng, n)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 0} {
		a := ApplyPermutationWorkers(narrow, perm, workers)
		b := ApplyPermutationWorkers(wide, perm, workers)
		if !a.Equal(b) {
			t.Fatalf("workers=%d: permuted matrices diverge across widths", workers)
		}
	}
}

// TestBuilderWidthMatchesCSCFromCOO: the streaming builder must pick the
// same storage width the batch path picks, on both sides of the boundary.
func TestBuilderWidthMatchesCSCFromCOO(t *testing.T) {
	for _, rows := range []int32{100, narrowRowLimit + 1} {
		counts := make([]int64, 3)
		counts[0], counts[2] = 2, 1
		b, err := NewCSCBuilder(rows, 3, counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.PlaceBatch([]Entry{{Row: rows - 1, Col: 0, Val: 1}, {Row: 0, Col: 0, Val: 2}, {Row: 5, Col: 2, Val: 3}})
		c, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCOO(rows, 3)
		m.Add(rows-1, 0, 1)
		m.Add(0, 0, 2)
		m.Add(5, 2, 3)
		want := CSCFromCOO(m)
		if c.IndexBits() != want.IndexBits() {
			t.Fatalf("rows=%d: builder chose %d-bit, batch chose %d-bit", rows, c.IndexBits(), want.IndexBits())
		}
		if !c.Equal(want) {
			t.Fatalf("rows=%d: builder result differs from batch path", rows)
		}
	}
}

// TestBuilderRejectsOverflow: entry totals past int32 must error at
// construction, never wrap.
func TestBuilderRejectsOverflow(t *testing.T) {
	counts := []int64{1 << 31, 1}
	if _, err := NewCSCBuilder(10, 2, counts, 1); err == nil {
		t.Fatal("builder accepted a > MaxInt32 entry total")
	}
}
