package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// SpGEMMResult carries the product matrix alongside the run statistics.
type SpGEMMResult struct {
	Result
	// C = A x B in the original labeling.
	C *sparse.CSC
}

// SpGEMM computes a sparse-matrix x sparse-matrix product on the machine:
// column j of C is one generalized SpMSpV with column j of B as the frontier
// (the column-oriented formulation the paper's OuterSpace/GraphBLAS
// citations use). A stays resident in the stack across all columns — the
// offload model of §6 — so the run is len(B columns) iterations.
func SpGEMM(a *sparse.CSC, b *sparse.CSC, cfg RunConfig) (*SpGEMMResult, error) {
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("apps: spgemm shape mismatch: A is %dx%d, B is %dx%d",
			a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	mach, err := buildMachine(a, semiring.PlusTimes{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()

	res := &SpGEMMResult{Result: newResult(a)}
	out := sparse.NewCOO(a.NumRows, b.NumCols)
	var entries, colBuf []gearbox.FrontierEntry // reused per-column buffers
	var st gearbox.IterStats
	for j := int32(0); j < b.NumCols; j++ {
		rows, vals := b.Col(j)
		if rows.Len() == 0 {
			continue
		}
		entries = entries[:0]
		for i, r := range rows.All() {
			entries = append(entries, gearbox.FrontierEntry{Index: plan.Perm.New[r], Value: vals[i]})
		}
		colBuf, st, err = mach.Iterate(colBuf[:0], entries, gearbox.IterateOptions{})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), false)
		for _, e := range colBuf {
			out.Entries = append(out.Entries, sparse.Entry{
				Row: plan.Perm.Old[e.Index], Col: j, Val: e.Value,
			})
		}
	}
	res.C = sparse.CSCFromCOO(out)
	res.finish()
	return res, nil
}

// RefSpGEMM is the plain-Go golden model (Gustavson's column-wise form).
func RefSpGEMM(a, b *sparse.CSC) *sparse.CSC {
	out := sparse.NewCOO(a.NumRows, b.NumCols)
	acc := map[int32]float32{}
	for j := int32(0); j < b.NumCols; j++ {
		clear(acc)
		bRows, bVals := b.Col(j)
		for i, k := range bRows.All() {
			aRows, aVals := a.Col(k)
			for x, r := range aRows.All() {
				acc[r] += aVals[x] * bVals[i]
			}
		}
		//gearbox:nondet-ok CSCFromCOO sorts the entries; emission order is unobservable
		for r, v := range acc {
			if v != 0 {
				out.Entries = append(out.Entries, sparse.Entry{Row: r, Col: j, Val: v})
			}
		}
	}
	return sparse.CSCFromCOO(out)
}
