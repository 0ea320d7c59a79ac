package apps

import (
	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// CCResult carries the component labeling alongside the run statistics.
type CCResult struct {
	Result
	// Component[v] is the minimum vertex id of v's connected component, in
	// the original labeling.
	Component []int32
	Count     int
}

// ConnectedComponents runs min-label propagation as iterated SpMSpV over
// the min-first algebra — an example of the "extending Gearbox for other
// irregular kernels" future work of §9: every vertex starts with its own id
// as label; each iteration propagates the minimum neighbor label; vertices
// whose label improved form the next frontier.
//
// The graph is treated as undirected only if the matrix is symmetric;
// labels converge to per-component minima of the directed reachability
// closure otherwise.
func ConnectedComponents(m *sparse.CSC, cfg RunConfig) (*CCResult, error) {
	mach, err := buildMachine(m, semiring.MinFirst{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()
	n := m.NumRows

	// Labels live in the relabeled space but carry original-id values so
	// ties break identically to the reference.
	labels := make([]float32, n)
	entries := make([]gearbox.FrontierEntry, n)
	for old := int32(0); old < n; old++ {
		nw := plan.Perm.New[old]
		labels[nw] = float32(old)
		entries[nw] = gearbox.FrontierEntry{Index: nw, Value: float32(old)}
	}

	res := &CCResult{Result: newResult(m)}
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = int(n)
	}
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
			if e.Value < labels[e.Index] {
				labels[e.Index] = e.Value
				entries = append(entries, e)
			}
		}
	}

	res.Component = make([]int32, n)
	roots := map[int32]bool{}
	for old := int32(0); old < n; old++ {
		c := int32(labels[plan.Perm.New[old]])
		res.Component[old] = c
		roots[c] = true
	}
	res.Count = len(roots)
	res.finish()
	return res, nil
}

// RefConnectedComponents is the union-find golden model over the
// symmetrized edge set.
func RefConnectedComponents(m *sparse.CSC) []int32 {
	n := m.NumRows
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for c := int32(0); c < m.NumCols; c++ {
		rows, _ := m.Col(c)
		for _, r := range rows.All() {
			union(c, r)
		}
	}
	out := make([]int32, n)
	for v := int32(0); v < n; v++ {
		out[v] = find(v)
	}
	// Normalize roots to component minima (find with min-union already
	// guarantees the root is the minimum).
	return out
}
