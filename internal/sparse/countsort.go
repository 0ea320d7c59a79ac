package sparse

import (
	"cmp"
	"math"

	"gearbox/internal/par"
)

// This file implements the O(nnz) two-pass counting (LSD radix) sort that
// CSCFromCOO and ApplyPermutation build on, replacing the O(nnz log nnz)
// comparison sort of the small-input path. Determinism is free:
// a stable counting sort has exactly one output for a given input, so the
// result is bit-identical at every worker count — the contract every
// preprocessing stage honors (DESIGN.md §7, "Preprocessing pipeline").
//
// Each pass is three parallel phases over deterministic index blocks:
//
//  1. per-block histograms: worker w counts key occurrences in its
//     contiguous block of the source slice;
//  2. offsets: global per-key starts (serial O(keys) prefix) are split into
//     per-(block, key) scatter cursors — block w's cursor for key k is
//     start[k] plus the counts of k in blocks before w, which is precisely
//     the slot a serial stable scan would assign;
//  3. scatter: worker w re-reads its block in order and places each entry
//     at its cursor, so equal keys keep source order (stability).
//
// Sorting by row first and column second yields (col,row) order, matching
// what the stable comparison sort produces.

// entryColRow is the (col,row) ordering shared by the counting and
// comparison paths.
func entryColRow(a, b Entry) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// useCountingSort decides between the counting path and the stable
// comparison sort. Both produce identical bytes (a stable sort has one
// answer); the choice is purely a cost model. Counting pays O(rows+cols)
// histogram work and memory, so it needs enough entries to amortize:
// tiny inputs and hypersparse matrices (dimensions far exceeding nnz)
// stay on the comparison path.
func useCountingSort(nnz int, rows, cols int32) bool {
	if nnz < 1<<12 {
		return false
	}
	// The per-block histograms, starts and scatter cursors are int32 cells;
	// an entry list beyond MaxInt32 would wrap them. Ingest (mtx, gen) caps
	// entry counts at MaxInt32 with a clean error, but a programmatically
	// built COO can exceed it — such inputs take the comparison path, which
	// is int-width safe end to end.
	if int64(nnz) > math.MaxInt32 {
		return false
	}
	maxDim := int64(rows)
	if int64(cols) > maxDim {
		maxDim = int64(cols)
	}
	return int64(nnz)*4 >= maxDim
}

// sortPool sizes the worker pool for one counting sort: the requested
// width, capped so the per-block histograms (blocks x keys int32 cells)
// stay proportional to the entry slice they accelerate.
func sortPool(workers, nnz int, rows, cols int32) *par.Pool {
	p := par.New(workers)
	maxDim := int(rows)
	if int(cols) > maxDim {
		maxDim = int(cols)
	}
	if maxDim == 0 {
		return p
	}
	if cap := 8 * nnz / maxDim; p.Workers() > cap {
		if cap < 1 {
			cap = 1
		}
		return par.New(cap)
	}
	return p
}

// radixScatter runs one stable counting pass from src to dst keyed by
// Row (byCol=false) or Col (byCol=true). hist must hold
// pool.Blocks(len(src))*nKeys cells; starts must hold nKeys+1 and receives
// the global key prefix (starts[k] = first dst index of key k).
func radixScatter(src, dst []Entry, nKeys int, byCol bool, pool *par.Pool, hist, starts []int32) {
	n := len(src)
	nb := pool.Blocks(n)
	pool.ForEachBlock("radix-count", n, nb, func(_, b, lo, hi int) {
		h := hist[b*nKeys : (b+1)*nKeys]
		clear(h)
		if byCol {
			for i := lo; i < hi; i++ {
				h[src[i].Col]++
			}
		} else {
			for i := lo; i < hi; i++ {
				h[src[i].Row]++
			}
		}
	})
	// Global per-key totals, then the serial prefix over keys.
	pool.ForEachBlock("radix-total", nKeys, pool.Blocks(nKeys), func(_, _, klo, khi int) {
		for k := klo; k < khi; k++ {
			var s int32
			for b := 0; b < nb; b++ {
				s += hist[b*nKeys+k]
			}
			starts[k+1] = s
		}
	})
	starts[0] = 0
	for k := 0; k < nKeys; k++ {
		starts[k+1] += starts[k]
	}
	// Split the global starts into per-(block, key) scatter cursors.
	pool.ForEachBlock("radix-cursors", nKeys, pool.Blocks(nKeys), func(_, _, klo, khi int) {
		for k := klo; k < khi; k++ {
			run := starts[k]
			for b := 0; b < nb; b++ {
				c := hist[b*nKeys+k]
				hist[b*nKeys+k] = run
				run += c
			}
		}
	})
	pool.ForEachBlock("radix-scatter", n, nb, func(_, b, lo, hi int) {
		off := hist[b*nKeys : (b+1)*nKeys]
		if byCol {
			for i := lo; i < hi; i++ {
				e := src[i]
				dst[off[e.Col]] = e
				off[e.Col]++
			}
		} else {
			for i := lo; i < hi; i++ {
				e := src[i]
				dst[off[e.Row]] = e
				off[e.Row]++
			}
		}
	})
}

// sortByColRow stable-sorts buf into (col,row) order using scratch (same
// length) as the ping-pong buffer; the sorted entries land back in buf.
// The returned slice has NumCols+1 elements: colStart[c] is the index of
// column c's first entry in buf.
func sortByColRow(buf, scratch []Entry, rows, cols int32, pool *par.Pool) (colStart []int32) {
	maxDim := int(rows)
	if int(cols) > maxDim {
		maxDim = int(cols)
	}
	hist := make([]int32, pool.Blocks(len(buf))*maxDim)
	rowStart := make([]int32, rows+1)
	colStart = make([]int32, cols+1)
	radixScatter(buf, scratch, int(rows), false, pool, hist[:pool.Blocks(len(buf))*int(rows)], rowStart)
	radixScatter(scratch, buf, int(cols), true, pool, hist[:pool.Blocks(len(buf))*int(cols)], colStart)
	return colStart
}

// mergeSortedEntries merges duplicate coordinates of a (col,row)-sorted
// slice in place, summing values and dropping exact zeros. It is the shared
// serial tail of the comparison path.
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
