package apps

import (
	"fmt"
	"math"

	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// SSSPResult carries the distance vector alongside the run statistics.
type SSSPResult struct {
	Result
	// Dist[v] is the shortest-path distance from the source in the original
	// labeling; +Inf when unreachable.
	Dist []float32
}

// SSSP runs single-source shortest paths as iterated SpMSpV over min-plus
// (§2.2: "multiplication is replaced by addition, and the accumulation
// operation is replaced by minimization"): each iteration relaxes the
// frontier's out-edges; vertices whose distance improved form the next
// frontier (Bellman-Ford style, as frontier-driven frameworks do).
func SSSP(m *sparse.CSC, source int32, cfg RunConfig) (*SSSPResult, error) {
	if source < 0 || source >= m.NumRows {
		return nil, fmt.Errorf("apps: sssp source %d out of range", source)
	}
	mach, err := buildMachine(m, semiring.MinPlus{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()
	n := m.NumRows
	inf := float32(math.Inf(1))

	dist := make([]float32, n) // new-label space
	for i := range dist {
		dist[i] = inf
	}
	src := plan.Perm.New[source]
	dist[src] = 0
	entries := []gearbox.FrontierEntry{{Index: src, Value: 0}}

	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = int(n)
	}
	res := &SSSPResult{Result: newResult(m)}
	var nextBuf []gearbox.FrontierEntry // reused output buffer
	var st gearbox.IterStats
	for len(entries) > 0 && res.Work.Iterations < maxIters {
		nextBuf, st, err = mach.Iterate(nextBuf[:0], entries, gearbox.IterateOptions{})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), false)
		entries = entries[:0]
		for _, e := range nextBuf {
			if e.Value < dist[e.Index] {
				dist[e.Index] = e.Value
				entries = append(entries, e)
			}
		}
	}

	res.Dist = sparse.UnpermuteVector(dist, plan.Perm)
	res.finish()
	return res, nil
}

// RefSSSP is the plain-Go golden model (Bellman-Ford with a frontier).
func RefSSSP(m *sparse.CSC, source int32) []float32 {
	n := m.NumRows
	inf := float32(math.Inf(1))
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	frontier := []int32{source}
	for len(frontier) > 0 {
		var next []int32
		seen := map[int32]bool{}
		for _, c := range frontier {
			rows, vals := m.Col(c)
			for i, r := range rows.All() {
				if d := dist[c] + vals[i]; d < dist[r] {
					dist[r] = d
					if !seen[r] {
						seen[r] = true
						next = append(next, r)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}
