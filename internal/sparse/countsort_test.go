package sparse

import (
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

// bigRandomCOO is large enough to clear the useCountingSort threshold so the
// sweep exercises the parallel counting path, with duplicates to stress the
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

func entriesEqual(a, b []Entry) bool { return slices.Equal(a, b) }

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
	if !useCountingSort(len(base.Entries), base.NumRows, base.NumCols) {
		t.Fatal("test input does not reach the counting-sort path")
	}
	want := CSCFromCOOWorkers(base, 1).ToCOO().Entries
	for _, w := range workerSweep() {
		if got := CSCFromCOOWorkers(base, w).ToCOO().Entries; !entriesEqual(got, want) {
			t.Fatalf("workers=%d: merged entries differ from serial", w)
		}
	}
}

// TestCoalesceCountingMatchesComparisonSort drives the same entries through
// both of CSCFromCOOWorkers' sorts: in their own shape they take the
// counting sort, declared inside a hypersparse shape they take the stable
// comparison fallback. The merged entries must be the same bits.
func TestCoalesceCountingMatchesComparisonSort(t *testing.T) {
	counted := bigRandomCOO(11)
	fallback := counted.Clone()
	fallback.NumRows, fallback.NumCols = 1<<20, 1<<20
	if !useCountingSort(len(counted.Entries), counted.NumRows, counted.NumCols) ||
		useCountingSort(len(fallback.Entries), fallback.NumRows, fallback.NumCols) {
		t.Fatal("test inputs do not split across the two sorts")
	}
	want := CSCFromCOOWorkers(fallback, 0).ToCOO().Entries
	for _, w := range workerSweep() {
		if got := CSCFromCOOWorkers(counted, w).ToCOO().Entries; !entriesEqual(got, want) {
			t.Fatalf("workers=%d: counting sort differs from the comparison fallback", w)
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

func TestCSCFromCOOCountingMatchesFallback(t *testing.T) {
	// The counting build must equal the stable comparison sort plus the
	// serial merge over the same entries: both keep source order within a
	// coordinate, so the merged float sums are the same bits.
	base := bigRandomCOO(17)
	if !useCountingSort(len(base.Entries), base.NumRows, base.NumCols) {
		t.Fatal("test input does not reach the counting-sort path")
	}
	want := slices.Clone(base.Entries)
	slices.SortStableFunc(want, entryColRow)
	want = mergeSortedEntries(want)
	for _, w := range workerSweep() {
		if got := CSCFromCOOWorkers(base, w).ToCOO().Entries; !entriesEqual(got, want) {
			t.Fatalf("workers=%d: counting build differs from the stable comparison sort", w)
		}
	}
}

func TestApplyPermutationWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := CSCFromCOO(bigRandomCOO(19))
	n := c.NumRows
	perm := Identity(n)
	rng.Shuffle(int(n), func(i, j int) {
		perm.Old[i], perm.Old[j] = perm.Old[j], perm.Old[i]
	})
	for nw, old := range perm.Old {
		perm.New[old] = int32(nw)
	}
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
	// Hypersparse shapes must not allocate worker-count × dimension
	// histograms: the pool width is capped so blocks*keys stays within a
	// small multiple of nnz.
	nnz := 1 << 13
	var dim int32 = 1 << 20
	if useCountingSort(nnz, dim, dim) {
		t.Fatal("hypersparse input should use the comparison fallback")
	}
	// A shape just inside the threshold still caps the worker count.
	dim = int32(nnz) // nnz*4 >= dim holds
	p := sortPool(64, nnz, dim, dim)
	if blocks := p.Blocks(nnz); blocks*int(dim) > 8*nnz {
		t.Fatalf("histogram footprint %d exceeds 8*nnz=%d", blocks*int(dim), 8*nnz)
	}
}
