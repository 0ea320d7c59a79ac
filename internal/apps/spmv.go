package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// SpMVResult carries the product vector alongside the run statistics.
type SpMVResult struct {
	Result
	// Y = Matrix * X in the original labeling.
	Y []float32
}

// SpMV computes one generalized matrix-vector product y = M*x over
// plus-times — the library-level entry point for users who want the raw
// kernel rather than one of the packaged applications. A dense x is one
// machine iteration with a dense frontier (the SpMV case of §1); zeros in x
// are skipped (the SpMSpV case).
func SpMV(m *sparse.CSC, x []float32, cfg RunConfig) (*SpMVResult, error) {
	if int32(len(x)) != m.NumCols {
		return nil, fmt.Errorf("apps: spmv vector length %d, want %d", len(x), m.NumCols)
	}
	mach, err := buildMachine(m, semiring.PlusTimes{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()

	entries := make([]gearbox.FrontierEntry, 0, len(x))
	for old, v := range x {
		if v != 0 {
			entries = append(entries, gearbox.FrontierEntry{Index: plan.Perm.New[old], Value: v})
		}
	}
	out, st, err := mach.Iterate(nil, entries, gearbox.IterateOptions{})
	if err != nil {
		return nil, err
	}

	res := &SpMVResult{Result: newResult(m), Y: make([]float32, m.NumRows)}
	res.addIter(st, len(entries), false)
	for _, e := range out {
		res.Y[plan.Perm.Old[e.Index]] = e.Value
	}
	res.finish()
	return res, nil
}

// RefSpMV is the plain-Go golden model.
func RefSpMV(m *sparse.CSC, x []float32) []float32 {
	y := make([]float32, m.NumRows)
	for c := int32(0); c < m.NumCols; c++ {
		if x[c] == 0 {
			continue
		}
		rows, vals := m.Col(c)
		for i, r := range rows.All() {
			y[r] += vals[i] * x[c]
		}
	}
	return y
}
