package sparse_test

import (
	"testing"

	"gearbox/internal/gen"
	"gearbox/internal/sparse"
)

// TestFinishTrimsMergedArrays: an RMAT matrix draws duplicate coordinates,
// which the CSC build merges. The finished matrix must hold exactly its
// kept entries, with no capacity left over from the pre-merge sizing.
func TestFinishTrimsMergedArrays(t *testing.T) {
	// Scale 12 stores 16-bit row indexes, scale 17 32-bit ones.
	for _, cfg := range []gen.RMATConfig{
		{Scale: 12, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 5, Workers: 1},
		{Scale: 17, EdgeFactor: 2, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 5, Workers: 1},
	} {
		c, err := gen.RMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drawn := int(float64(int(1)<<cfg.Scale) * cfg.EdgeFactor)
		if c.NNZ() >= drawn {
			t.Fatalf("scale %d: %d entries from %d draws, want duplicates merged away", cfg.Scale, c.NNZ(), drawn)
		}
		checkExact(t, c)
	}
}

// checkExact fails unless c's index and value arrays have len == cap ==
// NNZ. Column 0's views start at the arrays' first element, so their
// capacities are the arrays'.
func checkExact(t *testing.T, c *sparse.CSC) {
	t.Helper()
	rows, vals := c.Col(0)
	idxCap := cap(rows.Narrow())
	if w := rows.Wide(); w != nil {
		idxCap = cap(w)
	}
	if idxCap != c.NNZ() || cap(vals) != c.NNZ() {
		t.Fatalf("%d entries held in %d index and %d value slots", c.NNZ(), idxCap, cap(vals))
	}
}
