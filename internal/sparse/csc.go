package sparse

import (
	"fmt"
	"iter"
	"slices"
)

// narrowRowLimit is the largest row count whose indexes fit a uint16: rows
// are in [0, NumRows) and NumRows <= 1<<16 means every index is <= 65535.
const narrowRowLimit = 1 << 16

// CSC is a compressed-sparse-columns matrix: Offsets[c]..Offsets[c+1] index
// the row indexes and Values of column c (Fig. 4 of the paper).
//
// Row-index storage is width-adaptive: matrices with NumRows <= 65536 store
// 16-bit indexes, larger ones 32-bit, halving the index footprint of the
// scaled datasets while keeping full-size graphs addressable. The width is a
// storage detail — Col returns a Rows view and all accessors speak int32 —
// and both widths are pinned bit-identical through the equivalence suites.
type CSC struct {
	NumRows, NumCols int32
	Offsets          []int64 // len NumCols+1
	Values           []float32

	// Exactly one of ix16/ix32 is non-nil (for NNZ > 0). Constructors pick
	// ix16 whenever NumRows allows it; ForceWide converts to ix32 in place.
	ix16 []uint16
	ix32 []int32
}

// Rows is a read-only view of one column's row indexes (or of the whole
// index array). It adapts over the matrix's physical index width: hot loops
// branch once per column on Wide()/Narrow(), everything else ranges over
// All() or calls At.
type Rows struct {
	n16 []uint16
	n32 []int32
}

// Len reports the number of indexes in the view.
func (r Rows) Len() int {
	if r.n32 != nil {
		return len(r.n32)
	}
	return len(r.n16)
}

// At returns index i as an int32 regardless of storage width.
func (r Rows) At(i int) int32 {
	if r.n32 != nil {
		return r.n32[i]
	}
	return int32(r.n16[i])
}

// Wide returns the backing int32 slice, or nil when the view is 16-bit.
// Specialized hot loops branch once per column on it.
func (r Rows) Wide() []int32 { return r.n32 }

// Narrow returns the backing uint16 slice, or nil when the view is 32-bit.
func (r Rows) Narrow() []uint16 { return r.n16 }

// All ranges over (position, row index) pairs independent of storage width.
func (r Rows) All() iter.Seq2[int, int32] {
	return func(yield func(int, int32) bool) {
		if r.n32 != nil {
			for i, v := range r.n32 {
				if !yield(i, v) {
					return
				}
			}
			return
		}
		for i, v := range r.n16 {
			if !yield(i, int32(v)) {
				return
			}
		}
	}
}

// Int32s appends the view's indexes to dst and returns the extended slice.
func (r Rows) Int32s(dst []int32) []int32 {
	if r.n32 != nil {
		return append(dst, r.n32...)
	}
	dst = slices.Grow(dst, len(r.n16))
	for _, v := range r.n16 {
		dst = append(dst, int32(v))
	}
	return dst
}

// useNarrow reports whether a matrix with the given row count stores 16-bit
// indexes.
func useNarrow(rows int32) bool { return int64(rows) <= narrowRowLimit }

// allocIndexes sizes the index storage for n entries at the width NumRows
// calls for.
func (c *CSC) allocIndexes(n int) {
	if useNarrow(c.NumRows) {
		c.ix16 = make([]uint16, n)
		c.ix32 = nil
		return
	}
	c.ix32 = make([]int32, n)
	c.ix16 = nil
}

// IndexBits reports the physical index width in bits (16 or 32).
func (c *CSC) IndexBits() int {
	if c.ix32 != nil {
		return 32
	}
	return 16
}

// Index returns the row index of entry i (positions follow Offsets).
func (c *CSC) Index(i int64) int32 {
	if c.ix32 != nil {
		return c.ix32[i]
	}
	return int32(c.ix16[i])
}

// RowIndexes returns a Rows view over the whole index array, in offset
// order — the width-adaptive replacement for ranging over a raw index slice.
func (c *CSC) RowIndexes() Rows { return Rows{n16: c.ix16, n32: c.ix32} }

// IndexesInt32 returns the row indexes as an int32 slice: the backing array
// itself for wide matrices, a fresh widened copy for narrow ones. Mutating
// the result of a wide matrix mutates the matrix; use it for conversions and
// tests, not hot paths.
func (c *CSC) IndexesInt32() []int32 {
	if c.ix32 != nil {
		return c.ix32
	}
	out := make([]int32, len(c.ix16))
	for i, v := range c.ix16 {
		out[i] = int32(v)
	}
	return out
}

// ForceWide converts the matrix to 32-bit index storage in place. It exists
// for the narrow-vs-wide equivalence tests and for ablations; results are
// bit-identical either way.
func (c *CSC) ForceWide() {
	if c.ix32 != nil || c.ix16 == nil {
		if c.ix32 == nil {
			c.ix32 = []int32{}
			c.ix16 = nil
		}
		return
	}
	c.ix32 = make([]int32, len(c.ix16))
	for i, v := range c.ix16 {
		c.ix32[i] = int32(v)
	}
	c.ix16 = nil
}

// Equal reports whether the two matrices hold the same logical content
// (dimensions, offsets, row indexes, values), regardless of index width.
func (c *CSC) Equal(o *CSC) bool {
	if c.NumRows != o.NumRows || c.NumCols != o.NumCols ||
		!slices.Equal(c.Offsets, o.Offsets) || !slices.Equal(c.Values, o.Values) {
		return false
	}
	n := int64(c.NNZ())
	for i := int64(0); i < n; i++ {
		if c.Index(i) != o.Index(i) {
			return false
		}
	}
	return true
}

// CSCFromParts wraps pre-built compressed arrays (32-bit indexes) as a CSC,
// aliasing the given slices. It performs no validation; callers that need
// the structural invariants run Validate.
func CSCFromParts(rows, cols int32, offsets []int64, indexes []int32, values []float32) *CSC {
	return &CSC{NumRows: rows, NumCols: cols, Offsets: offsets, ix32: indexes, Values: values}
}

// CSCFromCOO builds a CSC matrix through CSCBuilder: duplicate coordinates
// merge in source order, exact zeros drop, and the input is not mutated.
// The output is bit-identical at every worker count.
func CSCFromCOO(m *COO) *CSC { return CSCFromCOOWorkers(m, 0) }

// CSCFromCOOWorkers is CSCFromCOO over an explicit worker count (0 selects
// GOMAXPROCS, 1 forces the serial path). An entry outside the matrix bounds
// panics, like COO.Add, instead of truncating into a narrow index; so does
// an entry total NewCSCBuilder rejects.
func CSCFromCOOWorkers(m *COO, workers int) *CSC {
	counts := make([]int64, m.NumCols)
	for _, e := range m.Entries {
		if e.Row < 0 || e.Row >= m.NumRows || e.Col < 0 || e.Col >= m.NumCols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds %dx%d", e.Row, e.Col, m.NumRows, m.NumCols))
		}
		counts[e.Col]++
	}
	b, err := NewCSCBuilder(m.NumRows, m.NumCols, counts, workers)
	if err != nil {
		panic(err)
	}
	b.PlaceBatch(m.Entries)
	c, err := b.Finish()
	if err != nil {
		panic(err) // unreachable: the tally above sized every column exactly
	}
	return c
}

// NNZ reports the number of non-zeros.
func (c *CSC) NNZ() int { return len(c.Values) }

// ColLen reports the number of non-zeros in column col.
func (c *CSC) ColLen(col int32) int { return int(c.Offsets[col+1] - c.Offsets[col]) }

// Col returns the row indexes and values of column col as views that alias
// the matrix storage.
func (c *CSC) Col(col int32) (Rows, []float32) {
	lo, hi := c.Offsets[col], c.Offsets[col+1]
	if c.ix32 != nil {
		return Rows{n32: c.ix32[lo:hi]}, c.Values[lo:hi]
	}
	return Rows{n16: c.ix16[lo:hi]}, c.Values[lo:hi]
}

// ToCOO converts back to coordinate form.
func (c *CSC) ToCOO() *COO {
	m := NewCOO(c.NumRows, c.NumCols)
	m.Entries = make([]Entry, 0, c.NNZ())
	for col := int32(0); col < c.NumCols; col++ {
		for i := c.Offsets[col]; i < c.Offsets[col+1]; i++ {
			m.Entries = append(m.Entries, Entry{Row: c.Index(i), Col: col, Val: c.Values[i]})
		}
	}
	return m
}

// Validate checks the structural invariants of the format. It is used by
// property tests and by the partitioner before accepting a matrix.
func (c *CSC) Validate() error {
	//gearbox:narrow-ok equality check against an int32 dimension; a wrapped length would simply fail the comparison
	if int32(len(c.Offsets)) != c.NumCols+1 {
		return fmt.Errorf("sparse: offsets length %d, want %d", len(c.Offsets), c.NumCols+1)
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("sparse: offsets[0]=%d, want 0", c.Offsets[0])
	}
	nIdx := len(c.ix32)
	if c.ix32 == nil {
		nIdx = len(c.ix16)
	}
	if c.Offsets[c.NumCols] != int64(len(c.Values)) || len(c.Values) != nIdx {
		return fmt.Errorf("sparse: offsets end %d vs values %d / indexes %d",
			c.Offsets[c.NumCols], len(c.Values), nIdx)
	}
	if c.ix16 != nil && !useNarrow(c.NumRows) {
		return fmt.Errorf("sparse: 16-bit indexes with %d rows", c.NumRows)
	}
	for col := int32(0); col < c.NumCols; col++ {
		if c.Offsets[col] > c.Offsets[col+1] {
			return fmt.Errorf("sparse: column %d has negative length", col)
		}
		for i := c.Offsets[col]; i < c.Offsets[col+1]; i++ {
			if r := c.Index(i); r < 0 || r >= c.NumRows {
				return fmt.Errorf("sparse: column %d row index %d out of range", col, r)
			}
			if i > c.Offsets[col] && c.Index(i-1) >= c.Index(i) {
				return fmt.Errorf("sparse: column %d rows not strictly increasing at %d", col, i)
			}
		}
	}
	return nil
}
