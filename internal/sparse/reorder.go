package sparse

import (
	"fmt"
	"math/rand"
)

// Permutation is a vertex relabeling: New[old] is the new index of vertex
// old, and Old[new] recovers the original. Gearbox applies one symmetric
// permutation to both rows and columns so that the output vector of one
// iteration is directly the input vector of the next (§3.2, §6).
type Permutation struct {
	New []int32 // old -> new
	Old []int32 // new -> old
}

// Identity returns the identity permutation over n vertices.
func Identity(n int32) *Permutation {
	p := &Permutation{New: make([]int32, n), Old: make([]int32, n)}
	for i := int32(0); i < n; i++ {
		p.New[i], p.Old[i] = i, i
	}
	return p
}

// Validate checks that the permutation is a bijection with consistent
// forward and inverse maps.
func (p *Permutation) Validate() error {
	if len(p.New) != len(p.Old) {
		return fmt.Errorf("sparse: permutation maps differ in length: %d vs %d", len(p.New), len(p.Old))
	}
	for old, nw := range p.New {
		if nw < 0 || int(nw) >= len(p.Old) {
			return fmt.Errorf("sparse: permutation image %d out of range", nw)
		}
		if p.Old[nw] != int32(old) {
			return fmt.Errorf("sparse: permutation not inverse-consistent at %d", old)
		}
	}
	return nil
}

// ReorderResult carries a reordered matrix together with the permutation that
// produced it and the boundary of the long region.
type ReorderResult struct {
	Matrix *CSC
	Perm   *Permutation
	// LastLong is the largest new index that belongs to the long region;
	// -1 when there are no long vertices. All vertices with new index in
	// [0, LastLong] correspond to long columns or long rows of the original
	// matrix, matching the comparator-and-latch hardware check (§3.2).
	LastLong int32
	// NumLongCols and NumLongRows count the sets before the union.
	NumLongCols, NumLongRows int
}

// ReorderLongFirst relabels the (square) matrix so that the union of the top
// longFrac columns and top longFrac rows occupies the lowest indices, and the
// remaining vertices are placed in a seeded random order. The randomization
// is the paper's load-balancing shuffle ("we randomize the order of columns
// assigned to a bank and then reorder the matrix so that the long columns and
// long rows are the first", §6). longFrac of 0 still applies the shuffle so
// the 0.00% ablation of Fig. 16a isolates the long-region effect.
func ReorderLongFirst(c *CSC, longFrac float64, seed int64) (*ReorderResult, error) {
	if c.NumRows != c.NumCols {
		return nil, fmt.Errorf("sparse: hybrid reorder requires a square matrix, got %dx%d", c.NumRows, c.NumCols)
	}
	n := c.NumRows
	colLens := ColumnLengths(c)
	rowLens := RowLengths(c)
	longCols := TopFraction(colLens, longFrac)
	longRows := TopFraction(rowLens, longFrac)

	isLong := make([]bool, n)
	for _, v := range longCols {
		isLong[v] = true
	}
	for _, v := range longRows {
		isLong[v] = true
	}

	var longSet, shortSet []int32
	for v := int32(0); v < n; v++ {
		if isLong[v] {
			longSet = append(longSet, v)
		} else {
			shortSet = append(shortSet, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shortSet), func(i, j int) { shortSet[i], shortSet[j] = shortSet[j], shortSet[i] })

	perm := &Permutation{New: make([]int32, n), Old: make([]int32, n)}
	next := int32(0)
	for _, v := range longSet {
		perm.New[v], perm.Old[next] = next, v
		next++
	}
	for _, v := range shortSet {
		perm.New[v], perm.Old[next] = next, v
		next++
	}

	return &ReorderResult{
		Matrix: ApplyPermutation(c, perm),
		Perm:   perm,
		//gearbox:narrow-ok longSet holds distinct column ids, so its size is bounded by NumCols, an int32
		LastLong:    int32(len(longSet)) - 1,
		NumLongCols: len(longCols),
		NumLongRows: len(longRows),
	}, nil
}

// ApplyPermutation relabels both rows and columns of c by perm and rebuilds
// the CSC structure. The relabel and rebuild run on the worker pool at full
// width; output is bit-identical at every worker count.
func ApplyPermutation(c *CSC, perm *Permutation) *CSC {
	return ApplyPermutationWorkers(c, perm, 0)
}

// ApplyPermutationWorkers is ApplyPermutation over an explicit worker count
// (0 selects GOMAXPROCS, 1 forces the serial path). Old column c lands whole
// in new column perm.New[c], so each block of old columns writes only its own
// column spans, in source order, and CSCBuilder.Finish sorts each span by
// row: worker count cannot leak into the result.
func ApplyPermutationWorkers(c *CSC, perm *Permutation, workers int) *CSC {
	counts := make([]int64, c.NumCols)
	for col := int32(0); col < c.NumCols; col++ {
		counts[perm.New[col]] = int64(c.ColLen(col))
	}
	b, err := NewCSCBuilder(c.NumRows, c.NumCols, counts, workers)
	if err != nil {
		panic(err) // unreachable: counts sum to c's own entry total
	}
	out, cur, pool, n := b.c, b.cur, b.pool, int(c.NumCols)
	pool.ForEachBlock("permute", n, pool.Blocks(n), func(_, _, lo, hi int) {
		for old := lo; old < hi; old++ {
			nc := perm.New[old]
			rows, vals := c.Col(int32(old))
			d := out.Offsets[nc]
			if w := rows.Wide(); w != nil {
				relabelRows(out, d, w, perm.New)
			} else {
				relabelRows(out, d, rows.Narrow(), perm.New)
			}
			copy(out.Values[d:], vals)
			cur[nc] = d + int64(len(vals))
		}
	})
	p, err := b.Finish()
	if err != nil {
		panic(err) // unreachable: every old column filled its new span
	}
	return p
}

// relabelRows writes src's row indexes, mapped through newOf, into c's
// index storage from position d.
func relabelRows[S uint16 | int32](c *CSC, d int64, src []S, newOf []int32) {
	if c.ix16 != nil {
		dst := c.ix16[d : d+int64(len(src))]
		for i, r := range src {
			dst[i] = uint16(newOf[r])
		}
		return
	}
	dst := c.ix32[d : d+int64(len(src))]
	for i, r := range src {
		dst[i] = newOf[r]
	}
}

// PermuteVector relabels a dense vector: out[perm.New[i]] = in[i].
func PermuteVector(in []float32, perm *Permutation) []float32 {
	out := make([]float32, len(in))
	for i, v := range in {
		out[perm.New[i]] = v
	}
	return out
}

// UnpermuteVector inverts PermuteVector: out[i] = in[perm.New[i]].
func UnpermuteVector(in []float32, perm *Permutation) []float32 {
	out := make([]float32, len(in))
	for i := range out {
		out[i] = in[perm.New[i]]
	}
	return out
}
