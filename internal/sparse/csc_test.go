package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig4Matrix builds the exact 6x6 example matrix of Fig. 4 in the paper:
//
//	col:   0   1   2   3   4   5
//	row0:      v3      v6
//	row1: v1              v7
//	row2:                      v9
//	row3:      v2      v5
//	row4: v0           v4
//	row5:                      v8
//
// whose CSC form is Values=[v1,v0,v3,v2,v6,v5,v4,v7,v9,v8],
// Indexes=[1,4,0,3,0,3,4,1,2,5], Offsets=[0,2,4,4,7,8,10].
// Values here encode vK as 20+K so the test can check ordering.
func fig4Matrix() *COO {
	m := NewCOO(6, 6)
	m.Add(1, 0, 21) // v1
	m.Add(4, 0, 20) // v0
	m.Add(0, 1, 23) // v3
	m.Add(3, 1, 22) // v2
	m.Add(0, 3, 26) // v6
	m.Add(3, 3, 25) // v5
	m.Add(4, 3, 24) // v4
	m.Add(1, 4, 27) // v7
	m.Add(2, 5, 29) // v9
	m.Add(5, 5, 28) // v8
	return m
}

func TestCSCMatchesFig4(t *testing.T) {
	c := CSCFromCOO(fig4Matrix())
	wantOffsets := []int64{0, 2, 4, 4, 7, 8, 10}
	for i, w := range wantOffsets {
		if c.Offsets[i] != w {
			t.Fatalf("Offsets[%d] = %d, want %d (paper Fig. 4)", i, c.Offsets[i], w)
		}
	}
	wantIndexes := []int32{1, 4, 0, 3, 0, 3, 4, 1, 2, 5}
	for i, w := range wantIndexes {
		if c.Index(int64(i)) != w {
			t.Fatalf("Indexes[%d] = %d, want %d (paper Fig. 4)", i, c.Index(int64(i)), w)
		}
	}
	wantValues := []float32{21, 20, 23, 22, 26, 25, 24, 27, 29, 28} // v1,v0,v3,v2,v6,v5,v4,v7,v9,v8
	for i, w := range wantValues {
		if c.Values[i] != w {
			t.Fatalf("Values[%d] = %v, want %v (paper Fig. 4)", i, c.Values[i], w)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSCRoundTripCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := canonical(randomCOO(rng, 50, 40, 300))
	c := CSCFromCOO(m)
	back := CSCFromCOO(c.ToCOO())
	if !cscEqual(c, back) {
		t.Fatal("COO->CSC->COO->CSC changed the matrix")
	}
}

func TestCSCValidateCatchesCorruption(t *testing.T) {
	base := func() *CSC { return CSCFromCOO(fig4Matrix()) }

	c := base()
	c.Offsets[0] = 1
	if c.Validate() == nil {
		t.Fatal("validate accepted offsets[0] != 0")
	}

	c = base()
	c.Offsets[2], c.Offsets[3] = c.Offsets[3]+1, c.Offsets[2]
	if c.Validate() == nil {
		t.Fatal("validate accepted decreasing offsets")
	}

	// IndexesInt32 aliases the storage of a wide matrix, so corruption
	// written through it is visible to Validate.
	c = base()
	c.ForceWide()
	c.IndexesInt32()[0] = c.NumRows
	if c.Validate() == nil {
		t.Fatal("validate accepted out-of-range row index")
	}

	c = base()
	c.ForceWide()
	// Column 0 has rows {1,4}; duplicating breaks strict monotonicity.
	c.IndexesInt32()[1] = c.IndexesInt32()[0]
	if c.Validate() == nil {
		t.Fatal("validate accepted non-increasing rows within a column")
	}
}

func TestQuickCSCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := canonical(randomCOO(rng, 1+rng.Int31n(24), 1+rng.Int31n(24), rng.Intn(128)))
		c := CSCFromCOO(m)
		if c.Validate() != nil {
			return false
		}
		return cscEqual(c, CSCFromCOO(c.ToCOO()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
