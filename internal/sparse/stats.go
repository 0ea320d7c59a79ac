package sparse

import (
	"cmp"
	"math"
	"slices"

	"gearbox/internal/par"
)

// Stats summarizes the shape of a matrix the way Table 3 and Fig. 5 of the
// paper do.
type Stats struct {
	Rows, Cols int32
	NNZ        int
	Density    float64 // NNZ / (Rows*Cols)
	SizeBytes  int64   // CSC footprint: values + width-adaptive indexes + offsets
	MaxColLen  int
	MaxRowLen  int
	AvgColLen  float64
}

// ComputeStats derives the Table-3 style summary for a matrix.
func ComputeStats(c *CSC) Stats {
	s := Stats{Rows: c.NumRows, Cols: c.NumCols, NNZ: c.NNZ()}
	if c.NumRows > 0 && c.NumCols > 0 {
		s.Density = float64(s.NNZ) / (float64(c.NumRows) * float64(c.NumCols))
	}
	s.SizeBytes = int64(s.NNZ)*int64(4+c.IndexBits()/8) + int64(len(c.Offsets))*8
	rowLens := RowLengths(c)
	for col := int32(0); col < c.NumCols; col++ {
		if l := c.ColLen(col); l > s.MaxColLen {
			s.MaxColLen = l
		}
	}
	for _, l := range rowLens {
		if l > s.MaxRowLen {
			s.MaxRowLen = l
		}
	}
	if c.NumCols > 0 {
		s.AvgColLen = float64(s.NNZ) / float64(c.NumCols)
	}
	return s
}

// HistBin is one bar of the Fig. 5 histogram: the percentage of columns whose
// length falls in (UpperLen/2, UpperLen].
type HistBin struct {
	UpperLen int     // power of two: 1, 2, 4, ...
	Percent  float64 // percentage of all columns
}

// ColumnLengthHistogram bins column lengths by powers of two, reproducing the
// x-axis of Fig. 5. Zero-length columns are excluded, matching the figure
// (its smallest bin is length 1).
func ColumnLengthHistogram(c *CSC) []HistBin {
	counts := map[int]int{}
	maxBin := 0
	total := 0
	for col := int32(0); col < c.NumCols; col++ {
		l := c.ColLen(col)
		if l == 0 {
			continue
		}
		total++
		bin := 1
		for bin < l {
			bin <<= 1
		}
		counts[bin]++
		if bin > maxBin {
			maxBin = bin
		}
	}
	if total == 0 {
		return nil
	}
	var bins []HistBin
	for b := 1; b <= maxBin; b <<= 1 {
		if n := counts[b]; n > 0 {
			bins = append(bins, HistBin{UpperLen: b, Percent: 100 * float64(n) / float64(total)})
		}
	}
	return bins
}

// ColumnLengths returns the per-column non-zero counts.
func ColumnLengths(c *CSC) []int {
	lens := make([]int, c.NumCols)
	for col := int32(0); col < c.NumCols; col++ {
		lens[col] = c.ColLen(col)
	}
	return lens
}

// RowLengths returns the per-row non-zero counts.
func RowLengths(c *CSC) []int {
	lens := make([]int, c.NumRows)
	if w := c.RowIndexes().Wide(); w != nil {
		for _, r := range w {
			lens[r]++
		}
	} else {
		for _, r := range c.RowIndexes().Narrow() {
			lens[r]++
		}
	}
	return lens
}

// RowLengthsWorkers is RowLengths sharded over the worker pool: per-block
// histograms over contiguous index blocks, then a row-sharded integer merge.
// Counts are order-insensitive integer sums, so the result is identical at
// every worker count (0 selects GOMAXPROCS, 1 the serial path).
func RowLengthsWorkers(c *CSC, workers int) []int {
	nnz := c.NNZ()
	pool := sortPool(workers, nnz, c.NumRows)
	nb := pool.Blocks(nnz)
	if nb <= 1 {
		return RowLengths(c)
	}
	rows := int(c.NumRows)
	idx := c.RowIndexes()
	hist := make([]int32, nb*rows)
	pool.ForEachBlock("row-count", nnz, nb, func(_, b, lo, hi int) {
		h := hist[b*rows : (b+1)*rows]
		if wide := idx.Wide(); wide != nil {
			for _, r := range wide[lo:hi] {
				h[r]++
			}
		} else {
			for _, r := range idx.Narrow()[lo:hi] {
				h[r]++
			}
		}
	})
	lens := make([]int, rows)
	pool.ForEachBlock("row-total", rows, pool.Blocks(rows), func(_, _, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			var s int
			for b := 0; b < nb; b++ {
				s += int(hist[b*rows+r])
			}
			lens[r] = s
		}
	})
	return lens
}

// sortPool sizes the worker pool for a per-block histogram over keys
// buckets: the requested width, capped so the histograms (blocks x keys
// int32 cells) stay proportional to the nnz entries they count.
func sortPool(workers, nnz int, keys int32) *par.Pool {
	p := par.New(workers)
	if keys == 0 {
		return p
	}
	if cap := 8 * nnz / int(keys); p.Workers() > cap {
		return par.New(max(cap, 1))
	}
	return p
}

// PowerLawExponent estimates the exponent alpha of a discrete power-law fit
// P(len) ~ len^-alpha over the column-length distribution, using the standard
// maximum-likelihood estimator with len_min=1. It is used by tests to check
// that the synthetic datasets are genuinely heavy-tailed.
func PowerLawExponent(lens []int) float64 {
	n := 0
	sum := 0.0
	for _, l := range lens {
		if l < 1 {
			continue
		}
		n++
		sum += math.Log(float64(l) + 0.5) // +0.5: continuity correction for discrete MLE
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// TopFraction returns the indices of the ceil(frac*len(lens)) largest entries
// of lens, ties broken by lower index. frac<=0 returns nil. This is the
// "top X% of columns/rows are long" selection of §3.2.
func TopFraction(lens []int, frac float64) []int32 {
	if frac <= 0 || len(lens) == 0 {
		return nil
	}
	k := int(math.Ceil(frac * float64(len(lens))))
	if k > len(lens) {
		k = len(lens)
	}
	idx := make([]int32, len(lens))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(lens[b], lens[a]); c != 0 {
			return c // longest first
		}
		return cmp.Compare(a, b)
	})
	out := append([]int32(nil), idx[:k]...)
	slices.Sort(out)
	return out
}
