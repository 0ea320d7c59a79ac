package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func squareRandom(rng *rand.Rand, n int32, nnz int) *CSC {
	return CSCFromCOO(randomCOO(rng, n, n, nnz))
}

// shuffledPerm returns a seeded uniformly random relabeling of n vertices.
func shuffledPerm(rng *rand.Rand, n int32) *Permutation {
	p := &Permutation{New: make([]int32, n), Old: make([]int32, n)}
	for i := range p.Old {
		p.Old[i] = int32(i)
	}
	rng.Shuffle(int(n), func(i, j int) { p.Old[i], p.Old[j] = p.Old[j], p.Old[i] })
	for nw, old := range p.Old {
		p.New[old] = int32(nw)
	}
	return p
}

func TestIdentityPermutation(t *testing.T) {
	p := &Permutation{New: []int32{0, 1, 2, 3, 4}, Old: []int32{0, 1, 2, 3, 4}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := squareRandom(rand.New(rand.NewSource(3)), 5, 12)
	if !cscEqual(c, ApplyPermutationWorkers(c, p, 0)) {
		t.Fatal("identity permutation changed the matrix")
	}
}

func TestPermuteUnpermuteVector(t *testing.T) {
	perm := shuffledPerm(rand.New(rand.NewSource(11)), 32)
	v := make([]float32, 32)
	for i := range v {
		v[i] = float32(i) * 1.5
	}
	p := PermuteVector(v, perm)
	for old, nw := range perm.New {
		if p[nw] != v[old] {
			t.Fatalf("permuted[%d] = %v, want v[%d] = %v", nw, p[nw], old, v[old])
		}
	}
	round := UnpermuteVector(p, perm)
	for i := range v {
		if round[i] != v[i] {
			t.Fatalf("round-trip[%d] = %v, want %v", i, round[i], v[i])
		}
	}
}

// TestQuickReorderPreservesSpMV is the key semantic property: relabeling both
// dimensions by the same permutation must commute with matrix-vector
// multiplication.
func TestQuickReorderPreservesSpMV(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Int31n(24)
		c := squareRandom(rng, n, rng.Intn(int(n)*3))
		perm := shuffledPerm(rng, n)
		relabeled := ApplyPermutationWorkers(c, perm, 0)
		if relabeled.Validate() != nil {
			return false
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Intn(5))
		}
		// y = M x computed on the original labeling.
		y := denseSpMV(c, x)
		// y' = M' x' on the relabeled matrix, then unpermute.
		yp := denseSpMV(relabeled, PermuteVector(x, perm))
		back := UnpermuteVector(yp, perm)
		for i := range y {
			if y[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// denseSpMV is a trivial reference y = M*x used only by tests in this package.
func denseSpMV(c *CSC, x []float32) []float32 {
	y := make([]float32, c.NumRows)
	for col := int32(0); col < c.NumCols; col++ {
		rows, vals := c.Col(col)
		for i, r := range rows.All() {
			y[r] += vals[i] * x[col]
		}
	}
	return y
}

func TestQuickPermutationBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Int31n(64)
		perm := shuffledPerm(rng, n)
		if perm.Validate() != nil {
			return false
		}
		// Two vertices sharing one image is no bijection.
		a, b := rng.Int31n(n), rng.Int31n(n-1)
		if b >= a {
			b++
		}
		perm.New[a] = perm.New[b]
		return perm.Validate() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
