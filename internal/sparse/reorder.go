package sparse

import "fmt"

// Permutation is a vertex relabeling: New[old] is the new index of vertex
// old, and Old[new] recovers the original. Gearbox applies one symmetric
// permutation to both rows and columns so that the output vector of one
// iteration is directly the input vector of the next (§3.2, §6).
type Permutation struct {
	New []int32 // old -> new
	Old []int32 // new -> old
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

// ApplyPermutationWorkers relabels both rows and columns of c by perm and
// rebuilds the CSC structure on workers (0 selects GOMAXPROCS, 1 forces the
// serial path). Old column c lands whole in new column perm.New[c], so each
// block of old columns writes only its own column spans, in source order, and
// CSCBuilder.Finish sorts each span by row: output is bit-identical at every
// worker count.
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
