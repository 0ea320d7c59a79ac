package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeStatsFig4(t *testing.T) {
	c := CSCFromCOO(fig4Matrix())
	s := ComputeStats(c)
	if s.NNZ != 10 {
		t.Fatalf("NNZ = %d, want 10", s.NNZ)
	}
	if want := 10.0 / 36.0; math.Abs(s.Density-want) > 1e-12 {
		t.Fatalf("density = %v, want %v", s.Density, want)
	}
	if s.MaxColLen != 3 { // column 3
		t.Fatalf("MaxColLen = %d, want 3", s.MaxColLen)
	}
	// row counts: r0={v3,v6} r1={v1,v7} r2={v9} r3={v2,v5} r4={v0,v4} r5={v8}
	if s.MaxRowLen != 2 {
		t.Fatalf("MaxRowLen = %d, want 2", s.MaxRowLen)
	}
}

func TestColumnLengthHistogramBins(t *testing.T) {
	// 4 columns: lengths 1, 2, 3, 8 -> bins 1:1, 2:1, 4:1, 8:1 each 25%.
	m := NewCOO(8, 4)
	m.Add(0, 0, 1)
	for r := int32(0); r < 2; r++ {
		m.Add(r, 1, 1)
	}
	for r := int32(0); r < 3; r++ {
		m.Add(r, 2, 1)
	}
	for r := int32(0); r < 8; r++ {
		m.Add(r, 3, 1)
	}
	bins := ColumnLengthHistogram(CSCFromCOO(m))
	want := map[int]float64{1: 25, 2: 25, 4: 25, 8: 25}
	if len(bins) != len(want) {
		t.Fatalf("bins = %+v", bins)
	}
	for _, b := range bins {
		if math.Abs(b.Percent-want[b.UpperLen]) > 1e-9 {
			t.Fatalf("bin %d percent = %v, want %v", b.UpperLen, b.Percent, want[b.UpperLen])
		}
	}
}

func TestColumnLengthHistogramEmpty(t *testing.T) {
	if bins := ColumnLengthHistogram(CSCFromCOO(NewCOO(4, 4))); bins != nil {
		t.Fatalf("empty matrix histogram = %+v, want nil", bins)
	}
}

func TestRowAndColumnLengths(t *testing.T) {
	c := CSCFromCOO(fig4Matrix())
	colLens := ColumnLengths(c)
	wantCols := []int{2, 2, 0, 3, 1, 2}
	for i, w := range wantCols {
		if colLens[i] != w {
			t.Fatalf("colLens[%d] = %d, want %d", i, colLens[i], w)
		}
	}
	rowLens := RowLengths(c)
	wantRows := []int{2, 2, 1, 2, 2, 1}
	for i, w := range wantRows {
		if rowLens[i] != w {
			t.Fatalf("rowLens[%d] = %d, want %d", i, rowLens[i], w)
		}
	}
}

func TestTopFraction(t *testing.T) {
	lens := []int{5, 1, 9, 9, 2, 0}
	got := TopFraction(lens, 0.34) // ceil(0.34*6)=3 -> indices of 9,9,5
	want := []int32{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("TopFraction = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopFraction = %v, want %v", got, want)
		}
	}
	if TopFraction(lens, 0) != nil {
		t.Fatal("TopFraction(0) should be nil")
	}
	if got := TopFraction(lens, 2.0); len(got) != len(lens) {
		t.Fatalf("TopFraction(>1) = %v, want all indices", got)
	}
}

func TestPowerLawExponentRecoversKnownAlpha(t *testing.T) {
	// Sample discrete power laws with known exponents via inverse-CDF on a
	// continuous Pareto and rounding; the MLE must order them correctly and
	// land near the truth.
	sample := func(alpha float64, n int, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, n)
		for i := range out {
			u := rng.Float64()
			x := math.Pow(1-u, -1/(alpha-1)) // Pareto with xmin=1
			out[i] = int(x)
			if out[i] < 1 {
				out[i] = 1
			}
		}
		return out
	}
	steep := PowerLawExponent(sample(3.0, 20000, 1))
	flat := PowerLawExponent(sample(1.8, 20000, 2))
	if !(flat < steep) {
		t.Fatalf("estimator ordering wrong: alpha(1.8 sample)=%v, alpha(3.0 sample)=%v", flat, steep)
	}
	if math.Abs(steep-3.0) > 0.5 || math.Abs(flat-1.8) > 0.4 {
		t.Fatalf("estimates too far from truth: got %v (want ~3.0) and %v (want ~1.8)", steep, flat)
	}
}

func TestQuickHistogramSumsTo100(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := canonical(randomCOO(rng, 1+rng.Int31n(32), 1+rng.Int31n(32), 1+rng.Intn(256)))
		bins := ColumnLengthHistogram(CSCFromCOO(m))
		sum := 0.0
		for _, b := range bins {
			if b.Percent <= 0 {
				return false
			}
			sum += b.Percent
		}
		return math.Abs(sum-100) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopFractionReturnsLargest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lens := make([]int, 1+rng.Intn(64))
		for i := range lens {
			lens[i] = rng.Intn(100)
		}
		frac := rng.Float64()
		top := TopFraction(lens, frac)
		if frac > 0 && len(top) == 0 {
			return false
		}
		inTop := make(map[int32]bool, len(top))
		minTop := math.MaxInt64
		for _, v := range top {
			inTop[v] = true
			if lens[v] < minTop {
				minTop = lens[v]
			}
		}
		// No excluded element may be strictly larger than the smallest included.
		for i, l := range lens {
			if !inTop[int32(i)] && l > minTop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
