// Package gen produces the synthetic datasets the reproduction runs on.
//
// The paper evaluates five SuiteSparse matrices (Table 3). Those files are
// not available offline, so this package generates deterministic stand-ins
// whose column-length distributions match each dataset's skew class: RMAT
// (Kronecker) power-law graphs for hollywood/orkut/twitter/patents, and a
// bounded-degree grid for road_usa. DESIGN.md §2 records the substitution.
package gen

import (
	"fmt"
	"math"

	"gearbox/internal/par"
	"gearbox/internal/sparse"
)

// RMATConfig parameterizes a recursive-matrix (Kronecker) generator.
// Quadrant probabilities follow the Graph500 convention; A >> B,C,D yields a
// heavier power law.
type RMATConfig struct {
	Scale      int     // matrix is 2^Scale x 2^Scale
	EdgeFactor float64 // average non-zeros per column
	A, B, C    float64 // quadrant probabilities (D = 1-A-B-C)
	Noise      float64 // per-level probability perturbation, breaks grid artifacts
	Seed       int64
	// Workers sizes the generator's worker pool: edge blocks generate in
	// parallel, each from its own seed-derived splitmix64 stream, so the
	// matrix is identical at every worker count. 0 selects GOMAXPROCS,
	// 1 forces the serial path.
	Workers int
}

// Validate checks the configuration is usable.
func (c RMATConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("gen: scale %d out of range [1,30]", c.Scale)
	}
	if c.EdgeFactor <= 0 {
		return fmt.Errorf("gen: edge factor %v must be positive", c.EdgeFactor)
	}
	d := 1 - c.A - c.B - c.C
	if c.A < 0 || c.B < 0 || c.C < 0 || d < 0 {
		return fmt.Errorf("gen: quadrant probabilities %v/%v/%v/%v must be non-negative", c.A, c.B, c.C, d)
	}
	return nil
}

// rmatBlockEdges is the number of edges one splitmix64 stream generates.
// Blocks are the unit of parallelism: edge i always belongs to block
// i/rmatBlockEdges and always consumes the same draws of that block's
// stream, so worker scheduling cannot reach the output.
const rmatBlockEdges = 8192

// RMAT generates a square power-law matrix in CSC form. Duplicate edges are
// coalesced, so the realized NNZ is slightly below Scale*EdgeFactor; self
// loops are kept (they are ordinary diagonal non-zeros for SpMV).
//
// Edges are generated in fixed blocks of rmatBlockEdges, each block from an
// independent splitmix64 stream seeded by mix(Seed, block): edge i's bits
// are a pure function of (Seed, i), never of which worker ran the block or
// how many workers exist.
func RMAT(cfg RMATConfig) (*sparse.CSC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int32(1) << cfg.Scale
	// Edge targets beyond int32 cannot index the entry stream downstream
	// (CSC entry positions are int32-addressed); fail before allocating.
	t64 := int64(float64(n) * cfg.EdgeFactor)
	if t64 > math.MaxInt32 {
		return nil, fmt.Errorf("gen: scale %d with edge factor %v targets %d edges, beyond the int32 entry limit", cfg.Scale, cfg.EdgeFactor, t64)
	}
	target := int(t64)
	entries := make([]sparse.Entry, target)
	d := clampProb(1 - cfg.A - cfg.B - cfg.C)
	pool := par.New(cfg.Workers)
	blocks := (target + rmatBlockEdges - 1) / rmatBlockEdges
	pool.ForEach("rmat", blocks, func(_, blk int) {
		rng := newSplitMix(uint64(cfg.Seed), uint64(blk))
		lo := blk * rmatBlockEdges
		hi := lo + rmatBlockEdges
		if hi > target {
			hi = target
		}
		for i := lo; i < hi; i++ {
			// Per-edge probability smoothing (noisy Kronecker) breaks the
			// staircase artifacts of plain RMAT without a per-level rng cost.
			a := clampProb(cfg.A + cfg.Noise*(rng.float64()-0.5))
			b := clampProb(cfg.B + cfg.Noise*(rng.float64()-0.5))
			cc := clampProb(cfg.C + cfg.Noise*(rng.float64()-0.5))
			total := a + b + cc + d
			row, col := int32(0), int32(0)
			for level := 0; level < cfg.Scale; level++ {
				u := rng.float64() * total
				row <<= 1
				col <<= 1
				switch {
				case u < a:
					// top-left: neither bit set
				case u < a+b:
					col |= 1
				case u < a+b+cc:
					row |= 1
				default:
					row |= 1
					col |= 1
				}
			}
			entries[i] = sparse.Entry{Row: row, Col: col, Val: 1 + float32(rng.next()%9)}
		}
	})
	coo := sparse.NewCOO(n, n)
	coo.Entries = entries
	return sparse.CSCFromCOOWorkers(coo, cfg.Workers), nil
}

// splitMix is a splitmix64 stream: one uint64 of state, one finalizer mix
// per draw. The same generator backs the simulator's per-SPU error streams
// (internal/gearbox); block streams here follow the same seeding discipline
// so stream b is decorrelated from stream 0, not a shifted copy.
type splitMix struct{ s uint64 }

// newSplitMix derives block b's stream state from the generator seed.
func newSplitMix(seed, b uint64) splitMix {
	z := seed ^ (b+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return splitMix{s: z ^ (z >> 31)}
}

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0,1) with 53 random bits, matching
// math/rand's Float64 range.
func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
