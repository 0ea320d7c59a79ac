package sparse

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// workerSweep is the equivalence grid every parallel preprocessing stage is
// checked over: serial, two widths that do not divide most sizes evenly, and
// whatever the host offers.
func workerSweep() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// bigRandomCOO spreads enough entries over enough columns that every worker
// in the sweep finishes a block of columns, with duplicates to stress the
// source-order merge.
func bigRandomCOO(seed int64) *COO {
	rng := rand.New(rand.NewSource(seed))
	const rows, cols = 512, 512
	m := NewCOO(rows, cols)
	m.Entries = make([]Entry, 0, 3<<12)
	for i := 0; i < 3<<12; i++ {
		m.Add(rng.Int31n(rows), rng.Int31n(cols), float32(rng.Intn(9)-4))
	}
	return m
}

// entriesEqual compares coordinates and value bits, so NaN payloads and
// signed zeros count.
func entriesEqual(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Row == y.Row && x.Col == y.Col && math.Float32bits(x.Val) == math.Float32bits(y.Val)
	})
}

// entryColRow orders entries by (col,row).
func entryColRow(a, b Entry) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// mergeSortedEntries merges duplicate coordinates of a (col,row)-sorted
// slice in place, summing values in slice order, then drops exact zeros.
func mergeSortedEntries(sorted []Entry) []Entry {
	out := sorted[:0]
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	kept := out[:0]
	for _, e := range out {
		if e.Val != 0 {
			kept = append(kept, e)
		}
	}
	return kept
}

// refEntries is the independent reference CSCFromCOO is checked against: a
// stable (col,row) sort of a copy of the entries plus the serial merge. The
// stable sort keeps source order within a coordinate, so duplicate sums
// fold in the same order CSCBuilder.Finish folds them.
func refEntries(m *COO) []Entry {
	ent := slices.Clone(m.Entries)
	slices.SortStableFunc(ent, entryColRow)
	return mergeSortedEntries(ent)
}

// TestCoalesceWorkersEquivalent merges heavy duplicates across the worker
// sweep: on a 64×64 shape every coordinate repeats about three times and
// many sums cancel to exact zeros, and the merged entries must not depend
// on the worker count.
func TestCoalesceWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := NewCOO(64, 64)
	for i := 0; i < 3<<12; i++ {
		base.Add(rng.Int31n(64), rng.Int31n(64), float32(rng.Intn(5)-2))
	}
	want := CSCFromCOOWorkers(base, 1).ToCOO().Entries
	for _, w := range workerSweep() {
		if got := CSCFromCOOWorkers(base, w).ToCOO().Entries; !entriesEqual(got, want) {
			t.Fatalf("workers=%d: merged entries differ from serial", w)
		}
	}
}

// TestCoalesceCountingMatchesComparisonSort builds the same entries in
// their own 512x512 shape and declared inside a hypersparse 1<<20 shape
// (wide indexes, almost every column empty): at every worker count both
// must merge to the reference's bits.
func TestCoalesceCountingMatchesComparisonSort(t *testing.T) {
	dense := bigRandomCOO(11)
	hyper := dense.Clone()
	hyper.NumRows, hyper.NumCols = 1<<20, 1<<20
	want := refEntries(dense)
	for _, w := range workerSweep() {
		for _, m := range []*COO{dense, hyper} {
			if got := CSCFromCOOWorkers(m, w).ToCOO().Entries; !entriesEqual(got, want) {
				t.Fatalf("workers=%d %dx%d: build differs from the reference", w, m.NumRows, m.NumCols)
			}
		}
	}
}

func TestCSCFromCOOWorkersEquivalent(t *testing.T) {
	base := bigRandomCOO(13)
	want := CSCFromCOOWorkers(base, 1)
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep() {
		got := CSCFromCOOWorkers(base, w)
		if !cscEqual(got, want) {
			t.Fatalf("workers=%d: CSC differs from serial build", w)
		}
	}
	// The input must not be mutated by the build.
	check := bigRandomCOO(13)
	if !entriesEqual(base.Entries, check.Entries) {
		t.Fatal("CSCFromCOOWorkers mutated its input")
	}
}

// TestCSCFromCOOCountingMatchesFallback: the builder must equal the stable
// comparison sort plus the serial merge over the same entries at every
// worker count; both keep source order within a coordinate, so the merged
// float sums are the same bits.
func TestCSCFromCOOCountingMatchesFallback(t *testing.T) {
	base := bigRandomCOO(17)
	want := refEntries(base)
	for _, w := range workerSweep() {
		if got := CSCFromCOOWorkers(base, w).ToCOO().Entries; !entriesEqual(got, want) {
			t.Fatalf("workers=%d: build differs from the stable comparison sort", w)
		}
	}
}

func TestApplyPermutationWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := CSCFromCOO(bigRandomCOO(19))
	n := c.NumRows
	perm := shuffledPerm(rng, n)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	want := ApplyPermutationWorkers(c, perm, 1)
	for _, w := range workerSweep() {
		if !cscEqual(ApplyPermutationWorkers(c, perm, w), want) {
			t.Fatalf("workers=%d: permuted matrix differs from serial", w)
		}
	}
}

func TestRowLengthsWorkersEquivalent(t *testing.T) {
	c := CSCFromCOO(bigRandomCOO(23))
	want := RowLengths(c)
	for _, w := range workerSweep() {
		if !slices.Equal(RowLengthsWorkers(c, w), want) {
			t.Fatalf("workers=%d: row lengths differ from serial", w)
		}
	}
}

func TestCSCFromCOOWorkersEmptyAndTiny(t *testing.T) {
	for _, w := range workerSweep() {
		if e := CSCFromCOOWorkers(NewCOO(4, 4), w); e.NNZ() != 0 || e.Validate() != nil {
			t.Fatalf("workers=%d: empty build produced %d entries", w, e.NNZ())
		}
		one := NewCOO(4, 4)
		one.Add(2, 3, 5)
		got := CSCFromCOOWorkers(one, w).ToCOO()
		if got.NNZ() != 1 || got.Entries[0] != (Entry{Row: 2, Col: 3, Val: 5}) {
			t.Fatalf("workers=%d: single-entry build = %+v", w, got.Entries)
		}
	}
}

func TestSortPoolCapsHistogramMemory(t *testing.T) {
	// RowLengthsWorkers must not allocate worker-count x row-count
	// histograms on hypersparse shapes: the pool width is capped so
	// blocks*keys stays within a small multiple of nnz.
	nnz := 1 << 13
	dim := int32(nnz)
	p := sortPool(64, nnz, dim)
	if blocks := p.Blocks(nnz); blocks*int(dim) > 8*nnz {
		t.Fatalf("histogram footprint %d exceeds 8*nnz=%d", blocks*int(dim), 8*nnz)
	}
}

// TestCSCFromCOORejectsOutOfRange: an entry outside the declared shape must
// panic, never truncate into a 16-bit index or land in a wrong column.
func TestCSCFromCOORejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    Entry
	}{
		{"row too large", Entry{Row: 1 << 16, Col: 0, Val: 1}},
		{"row negative", Entry{Row: -1, Col: 0, Val: 1}},
		{"col too large", Entry{Row: 0, Col: 4, Val: 1}},
		{"col negative", Entry{Row: 0, Col: -1, Val: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewCOO(4, 4)
			m.Entries = []Entry{{Row: 1, Col: 1, Val: 2}, tc.e}
			defer func() {
				if recover() == nil {
					t.Fatalf("entry %+v in a 4x4 matrix did not panic", tc.e)
				}
			}()
			CSCFromCOOWorkers(m, 1)
		})
	}
}

// fuzzVals is the value alphabet of FuzzCSCFromCOO: values that cancel to
// exact zeros, both signed zeros, and one NaN. Sums of at most a few hundred
// of them stay finite, so no operation makes a second NaN payload whose bits
// would depend on operand order.
var fuzzVals = []float32{1, -1, 0.5, -0.5, 0.1, 3, 0, float32(math.Copysign(0, -1)), float32(math.NaN())}

// FuzzCSCFromCOO checks the CSC build against the test-only reference on
// small matrices: dims 0-64, unsorted entries (three bytes each: row, col,
// value) that repeat coordinates and cancel to zeros. For a square shape it
// also relabels the built matrix by a permutation drawn from seed and checks
// the result against the reference over the relabeled entries.
func FuzzCSCFromCOO(f *testing.F) {
	f.Add(uint8(6), uint8(6), []byte{1, 0, 0, 4, 0, 1, 1, 0, 1, 0, 3, 6, 5, 5, 8, 2, 2, 7}, int64(1))
	f.Add(uint8(3), uint8(5), []byte{2, 4, 7, 2, 4, 2, 0, 0, 5}, int64(2))
	f.Add(uint8(0), uint8(7), []byte{1, 2, 3}, int64(3))
	f.Add(uint8(64), uint8(64), []byte{63, 63, 1, 0, 63, 2, 63, 0, 0}, int64(4))
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte, seed int64) {
		nr, nc := int32(rows%65), int32(cols%65)
		m := NewCOO(nr, nc)
		if nr > 0 && nc > 0 {
			for i := 0; i+2 < len(data) && i < 3*512; i += 3 {
				m.Add(int32(data[i])%nr, int32(data[i+1])%nc, fuzzVals[int(data[i+2])%len(fuzzVals)])
			}
		}
		orig := slices.Clone(m.Entries)
		want := refEntries(m)
		var built *CSC
		for _, w := range []int{1, 4} {
			c := CSCFromCOOWorkers(m, w)
			if err := c.Validate(); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if got := c.ToCOO().Entries; !entriesEqual(got, want) {
				t.Fatalf("workers=%d: build differs from the reference\ngot  %v\nwant %v", w, got, want)
			}
			built = c
		}
		if !entriesEqual(m.Entries, orig) {
			t.Fatal("CSCFromCOOWorkers mutated its input")
		}
		if nr != nc {
			return
		}
		perm := &Permutation{New: make([]int32, nr), Old: make([]int32, nr)}
		for nw, old := range rand.New(rand.NewSource(seed)).Perm(int(nr)) {
			perm.New[old], perm.Old[nw] = int32(nw), int32(old)
		}
		relabeled := NewCOO(nr, nc)
		for _, e := range m.Entries {
			relabeled.Add(perm.New[e.Row], perm.New[e.Col], e.Val)
		}
		want = refEntries(relabeled)
		for _, w := range []int{1, 4} {
			p := ApplyPermutationWorkers(built, perm, w)
			if err := p.Validate(); err != nil {
				t.Fatalf("workers=%d: permuted: %v", w, err)
			}
			if got := p.ToCOO().Entries; !entriesEqual(got, want) {
				t.Fatalf("workers=%d: permuted build differs from the reference", w)
			}
		}
	})
}

// TestFinishKeepsArraysWithoutMerges: a build whose entries are already
// distinct and non-zero, the shape .mtx inputs stream in, must finish in
// the arrays NewCSCBuilder allocated, without a trimming copy.
func TestFinishKeepsArraysWithoutMerges(t *testing.T) {
	for _, rows := range []int32{100, narrowRowLimit + 1} {
		b, err := NewCSCBuilder(rows, 2, []int64{2, 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		vals, ix16, ix32 := &b.c.Values[0], b.c.ix16, b.c.ix32
		b.PlaceBatch([]Entry{{Row: 3, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: 3}})
		c, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if &c.Values[0] != vals || (ix16 != nil && &c.ix16[0] != &ix16[0]) || (ix32 != nil && &c.ix32[0] != &ix32[0]) {
			t.Fatalf("rows=%d: Finish copied the arrays of a build with nothing to merge", rows)
		}
	}
}
