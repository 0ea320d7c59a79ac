package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// PRResult carries the rank vector alongside the run statistics.
type PRResult struct {
	Result
	// Ranks in the original labeling; sums to <= 1 (dangling mass is
	// dropped, as in the reference).
	Ranks []float32
}

// PageRank runs the power iteration as dense-frontier SpMV over plus-times:
// each iteration multiplies the column-normalized matrix by the rank vector
// and the Applying step adds the teleport term (§2.2's finalOutput =
// Output + αy with y = ones, α = (1-d)/n).
func PageRank(m *sparse.CSC, damping float32, iters int, cfg RunConfig) (*PRResult, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("apps: damping %v out of (0,1)", damping)
	}
	if iters < 1 {
		return nil, fmt.Errorf("apps: iterations %d < 1", iters)
	}
	mach, err := buildMachine(m, semiring.PlusTimes{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()
	n := plan.Matrix.NumRows

	// Column weight sums in the relabeled space: the out-weight each
	// vertex's rank is divided by.
	colSum := make([]float32, n)
	for c := int32(0); c < n; c++ {
		_, vals := plan.Matrix.Col(c)
		for _, v := range vals {
			colSum[c] += v
		}
	}

	pr := make([]float32, n)
	for i := range pr {
		pr[i] = 1 / float32(n)
	}
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	teleport := (1 - damping) / float32(n)

	res := &PRResult{Result: newResult(m)}
	entries := make([]gearbox.FrontierEntry, 0, n)
	var nextBuf []gearbox.FrontierEntry // reused output buffer
	var st gearbox.IterStats
	for it := 0; it < iters; it++ {
		entries = entries[:0]
		for c := int32(0); c < n; c++ {
			if colSum[c] > 0 && pr[c] != 0 {
				entries = append(entries, gearbox.FrontierEntry{Index: c, Value: damping * pr[c] / colSum[c]})
			}
		}
		nextBuf, st, err = mach.Iterate(nextBuf[:0], entries, gearbox.IterateOptions{Apply: &gearbox.ApplySpec{Alpha: teleport, Y: ones}})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), true)
		for i := range pr {
			pr[i] = 0
		}
		for _, e := range nextBuf {
			pr[e.Index] = e.Value
		}
	}

	res.Ranks = sparse.UnpermuteVector(pr, plan.Perm)
	res.finish()
	return res, nil
}

// RefPageRank is the plain-Go golden model with the same normalization and
// dangling-mass handling.
func RefPageRank(m *sparse.CSC, damping float32, iters int) []float32 {
	n := m.NumRows
	colSum := make([]float32, n)
	for c := int32(0); c < n; c++ {
		_, vals := m.Col(c)
		for _, v := range vals {
			colSum[c] += v
		}
	}
	pr := make([]float32, n)
	for i := range pr {
		pr[i] = 1 / float32(n)
	}
	teleport := (1 - damping) / float32(n)
	for it := 0; it < iters; it++ {
		next := make([]float32, n)
		for c := int32(0); c < n; c++ {
			if colSum[c] == 0 || pr[c] == 0 {
				continue
			}
			x := damping * pr[c] / colSum[c]
			rows, vals := m.Col(c)
			for i, r := range rows.All() {
				next[r] += vals[i] * x
			}
		}
		for i := range next {
			next[i] += teleport
		}
		pr = next
	}
	return pr
}
