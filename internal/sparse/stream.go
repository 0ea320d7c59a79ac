package sparse

import (
	"fmt"
	"math"
	"slices"

	"gearbox/internal/par"
)

// CSCBuilder is the one CSC construction: mtx.ReadCSC streams into it, and
// CSCFromCOO and ApplyPermutationWorkers build through it. The protocol has
// four steps:
//
//  1. a counting pass over the source tallies per-column entry counts;
//  2. NewCSCBuilder turns the counts into offsets and allocates the final
//     width-adaptive arrays — the only O(nnz) allocation of the build;
//  3. PlaceBatch scatters bounded batches of entries into their column
//     spans, in source order (callers feed batches serially;
//     ApplyPermutationWorkers instead fills whole column spans in parallel);
//  4. Finish sorts each column by row, merges duplicate coordinates by
//     summing their values in source order, drops exact zeros (a value
//     that compares equal to 0, so -0 too; NaN stays) and compacts.
//
// The result depends only on the entries and their source order, never on
// the worker count.
type CSCBuilder struct {
	c    *CSC
	cur  []int64 // per-column write cursor (absolute entry positions)
	pool *par.Pool
}

// NewCSCBuilder allocates the final arrays for a matrix whose column c will
// receive exactly colCounts[c] entries (duplicates included; they merge in
// Finish). Entry totals beyond MaxInt32 are rejected — the same clean-error
// guarantee the ingest paths give on 100M+ nnz inputs.
func NewCSCBuilder(rows, cols int32, colCounts []int64, workers int) (*CSCBuilder, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if int64(len(colCounts)) != int64(cols) {
		return nil, fmt.Errorf("sparse: %d column counts for %d columns", len(colCounts), cols)
	}
	c := &CSC{NumRows: rows, NumCols: cols, Offsets: make([]int64, cols+1)}
	for i, n := range colCounts {
		if n < 0 {
			return nil, fmt.Errorf("sparse: negative count for column %d", i)
		}
		c.Offsets[i+1] = c.Offsets[i] + n
	}
	total := c.Offsets[cols]
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: %d entries exceed the int32 entry limit", total)
	}
	c.allocIndexes(int(total))
	c.Values = make([]float32, total)
	b := &CSCBuilder{c: c, cur: make([]int64, cols), pool: par.New(workers)}
	copy(b.cur, c.Offsets[:cols])
	return b, nil
}

// PlaceBatch scatters one batch of entries into their column spans. Batches
// must arrive in source order, and rows/cols must already be validated
// against the matrix dimensions; the per-column counts given to
// NewCSCBuilder bound each column's span.
func (b *CSCBuilder) PlaceBatch(entries []Entry) {
	cur, vals := b.cur, b.c.Values
	if b.c.ix16 != nil {
		ix := b.c.ix16
		for _, e := range entries {
			p := cur[e.Col]
			cur[e.Col] = p + 1
			ix[p] = uint16(e.Row)
			vals[p] = e.Val
		}
		return
	}
	ix := b.c.ix32
	for _, e := range entries {
		p := cur[e.Col]
		cur[e.Col] = p + 1
		ix[p] = e.Row
		vals[p] = e.Val
	}
}

// Finish sorts, coalesces and compacts the placed entries and returns the
// matrix. Per-column work shards over the pool: each column sorts its span
// by (row, source position) — packed uint64 keys, so the sort is a plain
// slices.Sort and stability is structural — then merges duplicate rows in
// source order and drops exact zeros.
func (b *CSCBuilder) Finish() (*CSC, error) {
	c, cur := b.c, b.cur
	nCols := int(c.NumCols)
	for col := 0; col < nCols; col++ {
		if cur[col] != c.Offsets[col+1] {
			return nil, fmt.Errorf("sparse: column %d received %d of %d entries",
				col, cur[col]-c.Offsets[col], c.Offsets[col+1]-c.Offsets[col])
		}
	}

	pool := b.pool
	nb := pool.Blocks(nCols)
	keyScr := make([][]uint64, nb)
	valScr := make([][]float32, nb)
	// cur[col] becomes the column's kept-entry count.
	pool.ForEachBlock("csc-finish", nCols, nb, func(_, b, clo, chi int) {
		for col := clo; col < chi; col++ {
			lo, hi := c.Offsets[col], c.Offsets[col+1]
			n := int(hi - lo)
			if n == 0 {
				cur[col] = 0
				continue
			}
			if colClean(c, lo, hi) {
				cur[col] = int64(n)
				continue
			}
			keys := growTo(keyScr[b], n)
			keyScr[b] = keys
			if c.ix16 != nil {
				for i := 0; i < n; i++ {
					keys[i] = uint64(c.ix16[lo+int64(i)])<<32 | uint64(i)
				}
			} else {
				for i := 0; i < n; i++ {
					keys[i] = uint64(uint32(c.ix32[lo+int64(i)]))<<32 | uint64(i)
				}
			}
			slices.Sort(keys)
			vbuf := growToF(valScr[b], n)
			valScr[b] = vbuf
			copy(vbuf, c.Values[lo:hi])
			out := lo
			for i := 0; i < n; {
				row := keys[i] >> 32
				v := vbuf[uint32(keys[i])]
				j := i + 1
				// Equal rows sort by source position (the low key half), so
				// duplicate values fold in source order.
				for j < n && keys[j]>>32 == row {
					v += vbuf[uint32(keys[j])]
					j++
				}
				if v != 0 {
					if c.ix16 != nil {
						//gearbox:narrow-ok row round-trips through the packed sort key; it originated in this uint16 index array
						c.ix16[out] = uint16(row)
					} else {
						//gearbox:narrow-ok row round-trips through the packed sort key; it originated in this int32 index array
						c.ix32[out] = int32(row)
					}
					c.Values[out] = v
					out++
				}
				i = j
			}
			cur[col] = out - lo
		}
	})

	// Rebuild offsets and compact shrunk columns forward (dst <= src, so the
	// serial walk moves every span at most once, in place).
	run := int64(0)
	for col := 0; col < nCols; col++ {
		lo, kept := c.Offsets[col], cur[col]
		if run != lo && kept > 0 {
			if c.ix16 != nil {
				copy(c.ix16[run:run+kept], c.ix16[lo:lo+kept])
			} else {
				copy(c.ix32[run:run+kept], c.ix32[lo:lo+kept])
			}
			copy(c.Values[run:run+kept], c.Values[lo:lo+kept])
		}
		c.Offsets[col] = run
		run += kept
	}
	c.Offsets[nCols] = run
	if run < int64(len(c.Values)) {
		// Merging dropped entries: move the kept ones into exact-size
		// arrays, so the matrix does not hold the dropped tail for its
		// whole life. A build without duplicates or zeros keeps its arrays.
		if c.ix16 != nil {
			c.ix16 = shrink(c.ix16, run)
		} else {
			c.ix32 = shrink(c.ix32, run)
		}
		c.Values = shrink(c.Values, run)
	}
	b.c, b.cur = nil, nil
	return c, nil
}

// shrink copies s[:n] into a new array with len == cap == n.
func shrink[T any](s []T, n int64) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// colClean reports whether the span is already strictly increasing by row
// with no zero values — the overwhelmingly common case for real matrix
// files, which skips the sort entirely.
func colClean(c *CSC, lo, hi int64) bool {
	if c.ix16 != nil {
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			r := int32(c.ix16[i])
			if r <= prev || c.Values[i] == 0 {
				return false
			}
			prev = r
		}
		return true
	}
	prev := int32(-1)
	for i := lo; i < hi; i++ {
		r := c.ix32[i]
		if r <= prev || c.Values[i] == 0 {
			return false
		}
		prev = r
	}
	return true
}

// growTo returns s resized to n, reallocating only when capacity is short.
func growTo(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growToF(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
