package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// BFSResult carries the traversal output alongside the run statistics.
type BFSResult struct {
	Result
	// Levels[v] is the BFS depth of vertex v in the original labeling, or
	// -1 when unreachable.
	Levels  []int32
	Visited int
}

// BFS runs breadth-first search from source as iterated SpMSpV over the
// boolean algebra: each iteration expands the frontier through the matrix;
// already-visited vertices are masked out of the next frontier (the paper's
// BFS formulation; the first frontier is a single entry, §5 Step 1).
func BFS(m *sparse.CSC, source int32, cfg RunConfig) (*BFSResult, error) {
	if source < 0 || source >= m.NumRows {
		return nil, fmt.Errorf("apps: bfs source %d out of range", source)
	}
	mach, err := buildMachine(m, semiring.BoolOrAnd{}, cfg)
	if err != nil {
		return nil, err
	}
	plan := mach.Plan()
	n := m.NumRows

	res := &BFSResult{Result: newResult(m), Levels: make([]int32, n)}
	for i := range res.Levels {
		res.Levels[i] = -1
	}
	levelsNew := make([]int32, n) // new-label space
	for i := range levelsNew {
		levelsNew[i] = -1
	}

	src := plan.Perm.New[source]
	levelsNew[src] = 0
	entries := []gearbox.FrontierEntry{{Index: src, Value: 1}}

	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = int(n)
	}
	var nextBuf []gearbox.FrontierEntry // reused output buffer
	var st gearbox.IterStats
	for depth := int32(1); len(entries) > 0 && res.Work.Iterations < maxIters; depth++ {
		nextBuf, st, err = mach.Iterate(nextBuf[:0], entries, gearbox.IterateOptions{})
		if err != nil {
			return nil, err
		}
		res.addIter(st, len(entries), false)
		entries = entries[:0]
		for _, e := range nextBuf {
			if levelsNew[e.Index] < 0 {
				levelsNew[e.Index] = depth
				entries = append(entries, gearbox.FrontierEntry{Index: e.Index, Value: 1})
			}
		}
	}

	for old := int32(0); old < n; old++ {
		res.Levels[old] = levelsNew[plan.Perm.New[old]]
		if res.Levels[old] >= 0 {
			res.Visited++
		}
	}
	res.finish()
	return res, nil
}

// RefBFS is the plain-Go golden model.
func RefBFS(m *sparse.CSC, source int32) []int32 {
	n := m.NumRows
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[source] = 0
	frontier := []int32{source}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, c := range frontier {
			rows, _ := m.Col(c)
			for _, r := range rows.All() {
				if levels[r] < 0 {
					levels[r] = depth
					next = append(next, r)
				}
			}
		}
		frontier = next
	}
	return levels
}
