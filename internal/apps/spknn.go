package apps

import (
	"cmp"
	"fmt"
	"slices"

	"gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// Neighbor is one KNN hit: a sample row and its similarity score.
type Neighbor struct {
	Sample int32
	Score  float32
}

// KNNResult carries the per-query neighbor lists alongside the run
// statistics.
type KNNResult struct {
	Result
	// Neighbors[q] lists query q's top-K samples by descending score
	// (original labeling), ties broken by lower sample id.
	Neighbors [][]Neighbor
}

// SpKNN runs sparse K-nearest-neighbors: the dataset matrix holds samples as
// rows and features as columns; each sparse query vector is one SpMSpV whose
// output is the per-sample similarity score (the generalized SpMSpV use of
// §1's "Sparse K-Nearest Neighbor"). Queries are generated deterministically
// from seed; selection of the top K happens on the host, as in the paper's
// offload model.
func SpKNN(m *sparse.CSC, numQueries, queryNNZ, k int, seed int64, cfg RunConfig) (*KNNResult, error) {
	if numQueries < 1 || queryNNZ < 1 || k < 1 {
		return nil, fmt.Errorf("apps: bad KNN parameters q=%d nnz=%d k=%d", numQueries, queryNNZ, k)
	}
	mach, err := buildMachine(m, semiring.PlusTimes{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()

	res := &KNNResult{Result: newResult(m)}
	var entries, scoreBuf []gearbox.FrontierEntry // reused per-query buffers
	var st gearbox.IterStats
	for q := 0; q < numQueries; q++ {
		idx, vals := QueryVector(m.NumRows, queryNNZ, seed+int64(q))
		entries = entries[:0]
		for i := range idx {
			entries = append(entries, gearbox.FrontierEntry{Index: plan.Perm.New[idx[i]], Value: vals[i]})
		}
		scoreBuf, st, err = mach.Iterate(scoreBuf[:0], entries, gearbox.IterateOptions{})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), false)
		hits := make([]Neighbor, 0, len(scoreBuf))
		for _, e := range scoreBuf {
			hits = append(hits, Neighbor{Sample: plan.Perm.Old[e.Index], Score: e.Value})
		}
		res.Neighbors = append(res.Neighbors, TopK(hits, k))
	}
	res.finish()
	return res, nil
}

// QueryVector builds the deterministic sparse query used for query seed.
func QueryVector(n int32, nnz int, seed int64) ([]int32, []float32) {
	return gen.SparseVector(n, nnz, seed)
}

// TopK selects the k highest-scoring neighbors, ties by lower sample id.
func TopK(hits []Neighbor, k int) []Neighbor {
	slices.SortFunc(hits, func(a, b Neighbor) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c // highest score first
		}
		return cmp.Compare(a.Sample, b.Sample)
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return append([]Neighbor(nil), hits...)
}

// RefSpKNN is the plain-Go golden model.
func RefSpKNN(m *sparse.CSC, numQueries, queryNNZ, k int, seed int64) [][]Neighbor {
	out := make([][]Neighbor, numQueries)
	for q := 0; q < numQueries; q++ {
		idx, vals := QueryVector(m.NumRows, queryNNZ, seed+int64(q))
		scores := map[int32]float32{}
		for i, c := range idx {
			rows, mv := m.Col(c)
			for j, r := range rows.All() {
				scores[r] += mv[j] * vals[i]
			}
		}
		hits := make([]Neighbor, 0, len(scores))
		//gearbox:nondet-ok TopK orders hits by (score, sample id), a total order
		for s, v := range scores {
			if v != 0 {
				hits = append(hits, Neighbor{Sample: s, Score: v})
			}
		}
		out[q] = TopK(hits, k)
	}
	return out
}
