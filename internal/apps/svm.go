package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// SVMResult carries the per-batch class predictions alongside the run
// statistics.
type SVMResult struct {
	Result
	// Classes[b][v] is sample v's predicted class (+1/-1) for batch b, in
	// the original labeling.
	Classes [][]int8
}

// SVM runs linear SVM inference: scores = X·w + bias over plus-times, with a
// sparse weight vector w (the support-vector expansion is sparse, §1's
// "Support Vector Machine" use). Each batch is one SpMSpV with a freshly
// served weight vector; the sign threshold is applied on the host.
func SVM(m *sparse.CSC, batches, weightNNZ int, bias float32, seed int64, cfg RunConfig) (*SVMResult, error) {
	if batches < 1 || weightNNZ < 1 {
		return nil, fmt.Errorf("apps: bad SVM parameters batches=%d weightNNZ=%d", batches, weightNNZ)
	}
	mach, err := buildMachine(m, semiring.PlusTimes{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()
	n := m.NumRows

	res := &SVMResult{Result: newResult(m)}
	var entries, scoreBuf []gearbox.FrontierEntry // reused per-batch buffers
	var st gearbox.IterStats
	for b := 0; b < batches; b++ {
		idx, vals := WeightVector(n, weightNNZ, seed+int64(b))
		entries = entries[:0]
		for i := range idx {
			entries = append(entries, gearbox.FrontierEntry{Index: plan.Perm.New[idx[i]], Value: vals[i]})
		}
		scoreBuf, st, err = mach.Iterate(scoreBuf[:0], entries, gearbox.IterateOptions{})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), false)
		classes := make([]int8, n)
		for i := range classes {
			classes[i] = classify(0, bias)
		}
		for _, e := range scoreBuf {
			classes[plan.Perm.Old[e.Index]] = classify(e.Value, bias)
		}
		res.Classes = append(res.Classes, classes)
	}
	res.finish()
	return res, nil
}

// WeightVector builds the deterministic sparse weights for batch seed.
// Values alternate sign so both classes occur.
func WeightVector(n int32, nnz int, seed int64) ([]int32, []float32) {
	idx, vals := gen.SparseVector(n, nnz, seed)
	for i := range vals {
		if i%2 == 1 {
			vals[i] = -vals[i]
		}
	}
	return idx, vals
}

func classify(score, bias float32) int8 {
	if score+bias >= 0 {
		return 1
	}
	return -1
}

// RefSVM is the plain-Go golden model.
func RefSVM(m *sparse.CSC, batches, weightNNZ int, bias float32, seed int64) [][]int8 {
	n := m.NumRows
	out := make([][]int8, batches)
	for b := 0; b < batches; b++ {
		idx, vals := WeightVector(n, weightNNZ, seed+int64(b))
		scores := make([]float32, n)
		for i, c := range idx {
			rows, mv := m.Col(c)
			for j, r := range rows.All() {
				scores[r] += mv[j] * vals[i]
			}
		}
		classes := make([]int8, n)
		for v := int32(0); v < n; v++ {
			classes[v] = classify(scores[v], bias)
		}
		out[b] = classes
	}
	return out
}
