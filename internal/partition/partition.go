// Package partition implements the data-placement schemes of the paper:
// naive column-oriented partitioning (GearboxV1), Hybrid partitioning with
// and without long-entry replication (GearboxV2/V3, §3.2), the impractical
// all-in-logic-layer variant (HypoGearboxV2, Table 4), and the
// consecutive-column placement policies of Fig. 16b.
//
// A Plan relabels the matrix so every compute SPU owns one *contiguous*
// range of vertex indexes — that is what makes the FirstLocal/LastLocal
// comparator latches of §4 sufficient to classify accumulations — while the
// placement policy controls which SPU consecutive original columns land on.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gearbox/internal/mem"
	"gearbox/internal/par"
	"gearbox/internal/sparse"
)

// Scheme selects the partitioning strategy (Table 4).
type Scheme int

const (
	// ColumnOriented assigns whole columns to SPUs with no long region
	// (GearboxV1).
	ColumnOriented Scheme = iota
	// Hybrid stripes long columns across all SPUs and keeps short columns
	// whole (GearboxV2 with Replicate=false, GearboxV3 with Replicate=true).
	Hybrid
	// HypoLogicLayer keeps the matrix partitioned like Hybrid but places the
	// entire input and output vectors in the logic layer (HypoGearboxV2,
	// impractical: evaluated for Fig. 13 only).
	HypoLogicLayer
)

func (s Scheme) String() string {
	switch s {
	case ColumnOriented:
		return "column-oriented"
	case Hybrid:
		return "hybrid"
	case HypoLogicLayer:
		return "hypo-logic-layer"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Placement controls where consecutive original columns land (Fig. 16b).
type Placement int

const (
	// Shuffled is the paper's default pre-processing: randomize the column
	// order (§6). Statistically equivalent to Distributed plus load noise.
	Shuffled Placement = iota
	// SameSubarray stores consecutive columns in one subarray pair.
	SameSubarray
	// SameBank spreads consecutive columns across the SPUs of one bank.
	SameBank
	// SameVault spreads consecutive columns across the SPUs of one vault.
	SameVault
	// Distributed round-robins consecutive columns across every SPU.
	Distributed
)

func (p Placement) String() string {
	switch p {
	case Shuffled:
		return "shuffled"
	case SameSubarray:
		return "same-subarray"
	case SameBank:
		return "same-bank"
	case SameVault:
		return "same-vault"
	case Distributed:
		return "distributed"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Balance selects how short columns spread across SPUs.
type Balance int

const (
	// VertexBalanced gives every SPU the same number of columns (the
	// paper's randomize-and-split pre-processing, §6).
	VertexBalanced Balance = iota
	// NNZBalanced packs columns onto SPUs by longest-processing-time-first
	// so per-SPU non-zero counts equalize — a reproduction-added refinement
	// that counters the hot-short-column imbalance EXPERIMENTS.md measures
	// on scaled datasets. Applies to the Shuffled and Distributed
	// placements; structured placements keep their layout.
	NNZBalanced
)

func (b Balance) String() string {
	switch b {
	case VertexBalanced:
		return "vertex-balanced"
	case NNZBalanced:
		return "nnz-balanced"
	}
	return fmt.Sprintf("Balance(%d)", int(b))
}

// Config parameterizes a partitioning run.
type Config struct {
	Scheme    Scheme
	Placement Placement
	// LongFrac is the fraction of columns/rows labeled long (paper default
	// 0.01% = 0.0001). Ignored by ColumnOriented.
	LongFrac float64
	// Replicate enables the V3 optimization: long outputs replicated per
	// SPU, reduced in the logic layer (Fig. 7b).
	Replicate bool
	// Balance selects vertex-count or non-zero-count balancing.
	Balance Balance
	Seed    int64
	// Workers sizes the worker pool the build runs on (0 selects GOMAXPROCS,
	// 1 forces the serial path). The plan is bit-identical at every worker
	// count: the parallel pieces — permutation apply, CSC rebuild, ownership
	// fill, and the per-column long layout — are all pure functions of fixed
	// index blocks.
	Workers int
}

// PaperLongFrac is the paper's default long threshold: the top 0.01% of
// columns/rows (§3.2), appropriate at the paper's 1M-24M-vertex scale.
const PaperLongFrac = 0.0001

// ScaledLongFrac is the equivalent threshold for this repo's ~100x-smaller
// synthetic stand-ins: it captures a comparable share of non-zeros in the
// long region (DESIGN.md §2 records the scaling).
const ScaledLongFrac = 0.005

// DefaultConfig is the GearboxV3 configuration at the scaled threshold.
func DefaultConfig() Config {
	return Config{Scheme: Hybrid, Placement: Shuffled, LongFrac: ScaledLongFrac, Replicate: true, Seed: 1}
}

// Range is one SPU's contiguous owned vertex span [First, Last], inclusive.
// Empty ranges have Last < First.
type Range struct{ First, Last int32 }

// Len reports the number of owned vertices.
func (r Range) Len() int32 {
	if r.Last < r.First {
		return 0
	}
	return r.Last - r.First + 1
}

// Contains reports whether v falls in the range.
func (r Range) Contains(v int32) bool { return v >= r.First && v <= r.Last }

// Plan is the result of partitioning: the relabeled matrix, the permutation
// that produced it, per-SPU ownership ranges, and the long-column fragments.
type Plan struct {
	Cfg Config
	Geo mem.Geometry

	Matrix *sparse.CSC // relabeled
	Perm   *sparse.Permutation
	// LastLong bounds the long region in the new labels (-1: none).
	LastLong int32
	NumSPUs  int
	// Ranges[k] is compute SPU k's owned span over short vertices.
	Ranges []Range
	// OwnerOf[v] is the flat compute-SPU index owning new label v, or -1
	// for long-region labels (owned by the logic layer).
	OwnerOf []int32
	// LongEntries holds every long-column entry exactly once, column-major:
	// ordered by (column, SPU, fragment before spill), within each of those
	// runs in the column's storage order. Long columns are the first labels,
	// so column c occupies the same span [Matrix.Offsets[c],
	// Matrix.Offsets[c+1]) here as in the matrix.
	LongEntries []sparse.Entry
	// LongPieces[LongPieceStart[c]:LongPieceStart[c+1]] are long column c's
	// pieces, one per SPU that holds any of its entries, strictly ascending
	// by SPU and tiling the column's span of LongEntries (see LongPiece).
	LongPieces     []LongPiece
	LongPieceStart []int32
	// LongFrags[k] and LongRowSpill[k] are SPU k's non-empty fragment and
	// spill runs, as views into LongEntries in ascending column order: the
	// (row,value) entries of long columns whose rows SPU k owns, and the
	// long-column entries whose rows are themselves long (round-robined
	// across SPUs for balance).
	LongFrags    [][][]sparse.Entry
	LongRowSpill [][][]sparse.Entry
}

// LongPiece is one long column's share on compute SPU SPU. The fragment
// LongEntries[Lo:Mid] holds the column's entries whose rows SPU owns (the
// accumulation is local, Fig. 2b); the spill LongEntries[Mid:Hi] holds the
// long-row entries round-robined to SPU. A piece is never empty (Lo < Hi).
type LongPiece struct{ SPU, Lo, Mid, Hi int32 }

// LongPiecesOf returns long column c's pieces, ascending by SPU.
func (p *Plan) LongPiecesOf(c int32) []LongPiece {
	return p.LongPieces[p.LongPieceStart[c]:p.LongPieceStart[c+1]]
}

// SPUIDOf maps a flat compute-SPU index to its stack coordinates. Flat
// indexes enumerate layer-major, then bank, then SPU position; position
// skips the dispatcher slot (the last pair, §4.3).
func (p *Plan) SPUIDOf(flat int) mem.SPUID {
	per := p.Geo.ComputeSPUsPerBank()
	bankFlat := flat / per
	return mem.SPUID{
		Layer: bankFlat / p.Geo.BanksPerLayer,
		Bank:  bankFlat % p.Geo.BanksPerLayer,
		SPU:   flat % per,
	}
}

// DispatcherOf returns the Dispatcher SPU of the bank hosting flat SPU k.
func (p *Plan) DispatcherOf(flat int) mem.SPUID {
	id := p.SPUIDOf(flat)
	id.SPU = p.Geo.SPUsPerBank() - 1
	return id
}

// Build partitions the matrix for the given geometry.
func Build(m *sparse.CSC, geo mem.Geometry, cfg Config) (*Plan, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if m.NumRows != m.NumCols {
		return nil, fmt.Errorf("partition: requires a square matrix, got %dx%d", m.NumRows, m.NumCols)
	}
	if cfg.LongFrac < 0 || cfg.LongFrac > 1 {
		return nil, fmt.Errorf("partition: long fraction %v out of [0,1]", cfg.LongFrac)
	}
	longFrac := cfg.LongFrac
	if cfg.Scheme == ColumnOriented {
		longFrac = 0
	}

	numSPUs := geo.TotalComputeSPUs()
	n := m.NumRows

	perm, lastLong, counts, err := buildPermutation(m, geo, cfg, longFrac)
	if err != nil {
		return nil, err
	}
	relabeled := sparse.ApplyPermutationWorkers(m, perm, cfg.Workers)

	p := &Plan{
		Cfg:      cfg,
		Geo:      geo,
		Matrix:   relabeled,
		Perm:     perm,
		LastLong: lastLong,
		NumSPUs:  numSPUs,
		Ranges:   make([]Range, numSPUs),
		OwnerOf:  make([]int32, n),
	}

	// Contiguous short ranges: SPU k's range size is exactly the number of
	// columns the placement assigned to it (equal counts for
	// VertexBalanced, length-weighted counts for NNZBalanced).
	next := int64(lastLong + 1)
	for k := 0; k < numSPUs; k++ {
		size := int64(counts[k])
		//gearbox:narrow-ok next+size never exceeds NumRows, which is int32 by COO construction
		p.Ranges[k] = Range{First: int32(next), Last: int32(next + size - 1)}
		next += size
	}
	pool := par.New(cfg.Workers)
	pool.ForEachBlock("owner-clear", int(lastLong+1), pool.Blocks(int(lastLong+1)), func(_, _, lo, hi int) {
		for v := lo; v < hi; v++ {
			p.OwnerOf[v] = -1
		}
	})
	pool.ForEach("owner-fill", numSPUs, func(_, k int) {
		r := p.Ranges[k]
		for v := r.First; v <= r.Last; v++ {
			p.OwnerOf[v] = int32(k) //gearbox:narrow-ok k is an SPU ordinal, bounded by cfg.NumSPUs validation
		}
	})

	if err := p.buildLongFragments(pool); err != nil {
		return nil, err
	}
	return p, nil
}

// buildPermutation produces the vertex relabeling: long vertices first, then
// short vertices ordered so each SPU's contiguous new-label range receives
// the original columns its placement policy prescribes. The returned counts
// are the per-SPU assignment sizes the ranges must match.
func buildPermutation(m *sparse.CSC, geo mem.Geometry, cfg Config, longFrac float64) (*sparse.Permutation, int32, []int, error) {
	n := m.NumRows
	colLens := sparse.ColumnLengths(m)
	rowLens := sparse.RowLengthsWorkers(m, cfg.Workers)
	isLong := make([]bool, n)
	for _, v := range sparse.TopFraction(colLens, longFrac) {
		isLong[v] = true
	}
	for _, v := range sparse.TopFraction(rowLens, longFrac) {
		isLong[v] = true
	}

	var longSet, shortSet []int32
	for v := int32(0); v < n; v++ {
		if isLong[v] {
			longSet = append(longSet, v)
		} else {
			shortSet = append(shortSet, v)
		}
	}

	numSPUs := geo.TotalComputeSPUs()
	perSPU := make([][]int32, numSPUs)
	nnzBalance := cfg.Balance == NNZBalanced &&
		(cfg.Placement == Shuffled || cfg.Placement == Distributed)
	switch {
	case nnzBalance:
		// A vertex loads its SPU on both sides: column length drives Step 3
		// (outgoing accumulations) and row length drives Step 5 (incoming
		// remote pairs land at the row's owner). Balance their sum.
		weights := make([]int, n)
		for v := range weights {
			weights[v] = colLens[v] + rowLens[v] + 1 // +1 keeps Step 2/6 per-vertex work counted
		}
		perSPU = packByLength(shortSet, weights, numSPUs)
	case cfg.Placement == Shuffled:
		rng := rand.New(rand.NewSource(cfg.Seed))
		shuffled := append([]int32(nil), shortSet...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i, v := range shuffled {
			perSPU[i%numSPUs] = append(perSPU[i%numSPUs], v)
		}
	default:
		for i, v := range shortSet {
			k := spuForColumn(i, len(shortSet), geo, cfg)
			perSPU[k] = append(perSPU[k], v)
		}
	}

	if !nnzBalance {
		// Vertex balancing: per-SPU assignment sizes must match the even
		// split (base or base+1 per SPU); move overflow to underfull SPUs.
		rebalance(perSPU, len(shortSet))
	}

	perm := &sparse.Permutation{New: make([]int32, n), Old: make([]int32, n)}
	counts := make([]int, numSPUs)
	next := int32(0)
	for _, v := range longSet {
		perm.New[v], perm.Old[next] = next, v
		next++
	}
	for k := 0; k < numSPUs; k++ {
		counts[k] = len(perSPU[k])
		for _, v := range perSPU[k] {
			perm.New[v], perm.Old[next] = next, v
			next++
		}
	}
	if err := perm.Validate(); err != nil {
		return nil, 0, nil, fmt.Errorf("partition: %w", err)
	}
	//gearbox:narrow-ok longSet holds distinct column ids, so its size is bounded by NumCols, an int32
	return perm, int32(len(longSet)) - 1, counts, nil
}

// packByLength assigns columns to SPUs longest-first onto the least-loaded
// SPU (LPT list scheduling), equalizing per-SPU non-zero totals.
func packByLength(shortSet []int32, colLens []int, numSPUs int) [][]int32 {
	order := append([]int32(nil), shortSet...)
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(colLens[b], colLens[a]); c != 0 {
			return c // longest first
		}
		return cmp.Compare(a, b)
	})
	// A heap keyed by (load, count) keeps assignment O(n log S). The heap
	// is value-based and inlined — the loop only ever updates the root, so
	// init plus a sift-down per assignment is the whole interface, and the
	// container/heap `any` boxing (one allocation per slot plus interface
	// dispatch per comparison) buys nothing here.
	h := make([]slot, numSPUs)
	for k := 0; k < numSPUs; k++ {
		h[k] = slot{spu: k}
	}
	for i := numSPUs/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	perSPU := make([][]int32, numSPUs)
	for _, v := range order {
		s := &h[0]
		perSPU[s.spu] = append(perSPU[s.spu], v)
		s.load += int64(colLens[v])
		s.count++
		siftDown(h, 0)
	}
	return perSPU
}

// slot is one LPT least-loaded queue entry, ordered by (load, count, spu).
type slot struct {
	load  int64
	count int
	spu   int
}

func slotLess(a, b slot) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	if a.count != b.count {
		return a.count < b.count
	}
	return a.spu < b.spu
}

// siftDown restores the min-heap property below index i. Ties prefer the
// left child, matching container/heap's down() so the replacement preserves
// the exact assignment order of the previous slotHeap implementation.
func siftDown(h []slot, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && slotLess(h[r], h[c]) {
			c = r
		}
		if !slotLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// spuForColumn maps the i-th short column (in original order) to a compute
// SPU per the placement policy.
func spuForColumn(i, total int, geo mem.Geometry, cfg Config) int {
	numSPUs := geo.TotalComputeSPUs()
	per := geo.ComputeSPUsPerBank()
	switch cfg.Placement {
	case SameSubarray:
		// Consecutive block of columns per SPU.
		chunk := (total + numSPUs - 1) / numSPUs
		return min(i/chunk, numSPUs-1)
	case SameBank:
		// Consecutive blocks per bank; round-robin among the bank's SPUs.
		banks := numSPUs / per
		chunk := (total + banks - 1) / banks
		bank := min(i/chunk, banks-1)
		return bank*per + (i%chunk)%per
	case SameVault:
		// Consecutive blocks per vault; round-robin among the vault's SPUs
		// (all layers, the banks the vault owns).
		spusPerVault := numSPUs / geo.Vaults
		chunk := (total + geo.Vaults - 1) / geo.Vaults
		vault := min(i/chunk, geo.Vaults-1)
		return vault*spusPerVault + (i%chunk)%spusPerVault
	default: // Distributed (and Shuffled handled by caller)
		return i % numSPUs
	}
}

// rebalance evens out per-SPU assignment counts to match the contiguous
// range split (base or base+1 per SPU) while preserving placement intent as
// much as possible: overflowing SPUs push their tail columns to underfull
// ones.
func rebalance(perSPU [][]int32, total int) {
	numSPUs := len(perSPU)
	base := total / numSPUs
	extra := total % numSPUs
	want := func(k int) int {
		if k < extra {
			return base + 1
		}
		return base
	}
	var pool []int32
	for k := range perSPU {
		if w := want(k); len(perSPU[k]) > w {
			pool = append(pool, perSPU[k][w:]...)
			perSPU[k] = perSPU[k][:w]
		}
	}
	for k := range perSPU {
		if w := want(k); len(perSPU[k]) < w {
			take := w - len(perSPU[k])
			perSPU[k] = append(perSPU[k], pool[:take]...)
			pool = pool[take:]
		}
	}
}

// buildLongFragments lays out each long column's entries: entries whose row
// is short go to the row's owner (so the accumulation is local, Fig. 2b);
// entries whose row is itself long are round-robined across SPUs and handled
// by the LongEntryTreat path.
//
// The layout is built without maps in three passes over the long columns,
// each parallel by column with worker-private tallies. Pass 1 counts each
// column's spill entries; their prefix spillBase gives the round-robin
// target of a spill entry as (column prefix + within-column spill rank) mod
// NumSPUs, the serial global round-robin counter reproduced bit for bit at
// any worker count. Pass 2 counts each column's pieces, and its prefix sizes
// LongPieces exactly. Pass 3 re-tallies each column and writes its pieces
// and entries into the column's own spans, so every column is written by
// exactly one worker. The per-SPU views are then cut serially in column
// order.
func (p *Plan) buildLongFragments(pool *par.Pool) error {
	nLong := int(p.LastLong + 1)
	// colStart[c] is long column c's offset in LongEntries: its matrix
	// offset, since long columns are the first labels. Pieces index
	// LongEntries with int32 offsets, so the long region must fit.
	colStart := make([]int32, nLong+1)
	for c := range colStart {
		o := p.Matrix.Offsets[c]
		if o > math.MaxInt32 {
			return fmt.Errorf("partition: long columns hold more than %d entries, the long layout's limit", math.MaxInt32)
		}
		colStart[c] = int32(o)
	}
	spillBase := make([]int, nLong+1)
	pool.ForEach("long-spill", nLong, func(_, ci int) {
		rows, _ := p.Matrix.Col(int32(ci)) //gearbox:narrow-ok ci < nLong <= NumCols, an int32
		n := 0
		if wide := rows.Wide(); wide != nil {
			for _, r := range wide {
				if p.OwnerOf[r] < 0 {
					n++
				}
			}
		} else {
			for _, r := range rows.Narrow() {
				if p.OwnerOf[r] < 0 {
					n++
				}
			}
		}
		spillBase[ci+1] = n
	})
	for c := 0; c < nLong; c++ {
		spillBase[c+1] += spillBase[c]
	}

	tallies := make([]pieceTally, pool.Workers())
	for w := range tallies {
		tallies[w] = pieceTally{frag: make([]int32, p.NumSPUs), spill: make([]int32, p.NumSPUs)}
	}
	p.LongPieceStart = make([]int32, nLong+1)
	pool.ForEach("long-count", nLong, func(w, ci int) {
		t := &tallies[w]
		p.LongPieceStart[ci+1] = t.count(p, ci, spillBase[ci])
		t.clear()
	})
	for c := 0; c < nLong; c++ {
		p.LongPieceStart[c+1] += p.LongPieceStart[c]
	}

	p.LongEntries = make([]sparse.Entry, colStart[nLong])
	p.LongPieces = make([]LongPiece, p.LongPieceStart[nLong])
	pool.ForEach("long-fill", nLong, func(w, ci int) {
		t := &tallies[w]
		t.count(p, ci, spillBase[ci])
		lo, hi := colStart[ci], colStart[ci+1]
		t.fill(p, ci, spillBase[ci], lo, p.LongEntries[lo:hi],
			p.LongPieces[p.LongPieceStart[ci]:p.LongPieceStart[ci+1]])
	})
	p.cutLongViews()
	return nil
}

// pieceTally is one worker's per-column scratch for buildLongFragments:
// per-SPU fragment and spill counts (zero between columns) and the SPUs the
// current column touches.
type pieceTally struct {
	frag, spill []int32
	touched     []int32
}

// count tallies long column ci's entries per SPU, leaves the touched SPUs
// ascending in t.touched and returns how many there are (the column's piece
// count). rr is the round-robin ordinal of the column's first spill entry.
func (t *pieceTally) count(p *Plan, ci, rr int) int32 {
	t.touched = t.touched[:0]
	var n int32
	rows, _ := p.Matrix.Col(int32(ci)) //gearbox:narrow-ok ci < nLong <= NumCols, an int32
	for _, r := range rows.All() {
		k := p.OwnerOf[r]
		tally := t.frag
		if k < 0 {
			k = int32(rr % p.NumSPUs) //gearbox:narrow-ok a residue mod NumSPUs is an SPU ordinal
			rr++
			tally = t.spill
		}
		if t.frag[k] == 0 && t.spill[k] == 0 {
			t.touched = append(t.touched, k)
			n++
		}
		tally[k]++
	}
	slices.Sort(t.touched)
	return n
}

// clear zeroes the counts count left behind.
func (t *pieceTally) clear() {
	for _, k := range t.touched {
		t.frag[k], t.spill[k] = 0, 0
	}
}

// fill writes long column ci's pieces and entries from the counts of a
// preceding count call, then clears them. entries is the column's span of
// LongEntries, starting at offset base; pieces is its span of LongPieces.
func (t *pieceTally) fill(p *Plan, ci, rr int, base int32, entries []sparse.Entry, pieces []LongPiece) {
	// Turn the counts into per-SPU write cursors (relative to the span).
	off := int32(0)
	for i, k := range t.touched {
		nf, ns := t.frag[k], t.spill[k]
		lo := base + off
		pieces[i] = LongPiece{SPU: k, Lo: lo, Mid: lo + nf, Hi: lo + nf + ns}
		t.frag[k], t.spill[k] = off, off+nf
		off += nf + ns
	}
	c := int32(ci) //gearbox:narrow-ok ci < nLong <= NumCols, an int32
	rows, vals := p.Matrix.Col(c)
	for i, r := range rows.All() {
		cursor := t.frag
		k := p.OwnerOf[r]
		if k < 0 {
			k = int32(rr % p.NumSPUs) //gearbox:narrow-ok a residue mod NumSPUs is an SPU ordinal
			rr++
			cursor = t.spill
		}
		entries[cursor[k]] = sparse.Entry{Row: r, Col: c, Val: vals[i]}
		cursor[k]++
	}
	t.clear()
}

// cutLongViews slices LongEntries into the per-SPU LongFrags and
// LongRowSpill views, each SPU's runs in ascending column order. Two
// backing arrays hold every view, so the views cost one slice header per
// non-empty run.
func (p *Plan) cutLongViews() {
	nFrag := make([]int, p.NumSPUs+1)
	nSpill := make([]int, p.NumSPUs+1)
	for _, pc := range p.LongPieces {
		if pc.Mid > pc.Lo {
			nFrag[pc.SPU+1]++
		}
		if pc.Hi > pc.Mid {
			nSpill[pc.SPU+1]++
		}
	}
	for k := 0; k < p.NumSPUs; k++ {
		nFrag[k+1] += nFrag[k]
		nSpill[k+1] += nSpill[k]
	}
	frags := make([][]sparse.Entry, nFrag[p.NumSPUs])
	spills := make([][]sparse.Entry, nSpill[p.NumSPUs])
	p.LongFrags = make([][][]sparse.Entry, p.NumSPUs)
	p.LongRowSpill = make([][][]sparse.Entry, p.NumSPUs)
	for k := 0; k < p.NumSPUs; k++ {
		p.LongFrags[k] = frags[nFrag[k]:nFrag[k]:nFrag[k+1]]
		p.LongRowSpill[k] = spills[nSpill[k]:nSpill[k]:nSpill[k+1]]
	}
	// Pieces are column-major, so appending in piece order leaves each
	// SPU's runs in ascending column order.
	for _, pc := range p.LongPieces {
		if pc.Mid > pc.Lo {
			p.LongFrags[pc.SPU] = append(p.LongFrags[pc.SPU], p.LongEntries[pc.Lo:pc.Mid:pc.Mid])
		}
		if pc.Hi > pc.Mid {
			p.LongRowSpill[pc.SPU] = append(p.LongRowSpill[pc.SPU], p.LongEntries[pc.Mid:pc.Hi:pc.Hi])
		}
	}
}

// Validate checks the structural invariants the machine relies on; property
// tests call it after every build.
func (p *Plan) Validate() error {
	n := p.Matrix.NumRows
	//gearbox:narrow-ok equality check against an int32 dimension; a wrapped length would simply fail the comparison
	if int32(len(p.OwnerOf)) != n {
		return fmt.Errorf("partition: OwnerOf length %d, want %d", len(p.OwnerOf), n)
	}
	// Ranges tile [LastLong+1, n) exactly.
	next := p.LastLong + 1
	for k, r := range p.Ranges {
		if r.Len() == 0 {
			continue
		}
		if r.First != next {
			return fmt.Errorf("partition: SPU %d range starts at %d, want %d", k, r.First, next)
		}
		next = r.Last + 1
	}
	if next != n {
		return fmt.Errorf("partition: ranges end at %d, want %d", next, n)
	}
	for v := int32(0); v < n; v++ {
		owner := p.OwnerOf[v]
		if v <= p.LastLong {
			if owner != -1 {
				return fmt.Errorf("partition: long label %d has owner %d", v, owner)
			}
			continue
		}
		if owner < 0 || int(owner) >= p.NumSPUs || !p.Ranges[owner].Contains(v) {
			return fmt.Errorf("partition: label %d owner %d inconsistent with ranges", v, owner)
		}
	}
	return p.validateLongLayout()
}

// validateLongLayout checks the column-major long layout: every long
// column's pieces are strictly ascending by SPU and tile the column's span
// of LongEntries; fragment rows belong to the piece's SPU and spill rows are
// long; every entry carries its column, and every long-column entry of the
// matrix appears exactly once.
func (p *Plan) validateLongLayout() error {
	nLong := int(p.LastLong + 1)
	if len(p.LongPieceStart) != nLong+1 || p.LongPieceStart[0] != 0 ||
		int(p.LongPieceStart[nLong]) != len(p.LongPieces) {
		return fmt.Errorf("partition: piece table has %d starts for %d pieces, want %d starts", len(p.LongPieceStart), len(p.LongPieces), nLong+1)
	}
	if int64(len(p.LongEntries)) != p.Matrix.Offsets[nLong] {
		return fmt.Errorf("partition: long layout holds %d entries, long columns hold %d", len(p.LongEntries), p.Matrix.Offsets[nLong])
	}
	// mark[r] is c+1 while row r of long column c is unseen, -(c+1) once seen.
	mark := make([]int32, p.Matrix.NumRows)
	for c := int32(0); c <= p.LastLong; c++ {
		if p.LongPieceStart[c+1] < p.LongPieceStart[c] {
			return fmt.Errorf("partition: column %d piece range is reversed", c)
		}
		rows, _ := p.Matrix.Col(c)
		for _, r := range rows.All() {
			mark[r] = c + 1
		}
		next := p.Matrix.Offsets[c]
		prevSPU := int32(-1)
		for _, pc := range p.LongPiecesOf(c) {
			if pc.SPU <= prevSPU || int(pc.SPU) >= p.NumSPUs {
				return fmt.Errorf("partition: column %d piece on SPU %d after SPU %d, want strictly ascending SPUs below %d", c, pc.SPU, prevSPU, p.NumSPUs)
			}
			prevSPU = pc.SPU
			if int64(pc.Lo) != next || pc.Mid < pc.Lo || pc.Hi < pc.Mid || pc.Hi == pc.Lo {
				return fmt.Errorf("partition: column %d piece %+v does not continue its span at %d", c, pc, next)
			}
			next = int64(pc.Hi)
			for i, e := range p.LongEntries[pc.Lo:pc.Hi] {
				switch {
				case e.Col != c:
					return fmt.Errorf("partition: column %d piece on SPU %d holds an entry of column %d", c, pc.SPU, e.Col)
				case e.Row < 0 || e.Row >= p.Matrix.NumRows || mark[e.Row] == -(c+1):
					return fmt.Errorf("partition: column %d entry row %d appears more than once", c, e.Row)
				case mark[e.Row] != c+1:
					return fmt.Errorf("partition: column %d holds row %d, which the matrix column lacks", c, e.Row)
				case int32(i) < pc.Mid-pc.Lo && p.OwnerOf[e.Row] != pc.SPU:
					return fmt.Errorf("partition: SPU %d holds fragment row %d owned by %d", pc.SPU, e.Row, p.OwnerOf[e.Row])
				case int32(i) >= pc.Mid-pc.Lo && p.OwnerOf[e.Row] != -1:
					return fmt.Errorf("partition: spill entry row %d is not long", e.Row)
				}
				mark[e.Row] = -(c + 1)
			}
		}
		if next != p.Matrix.Offsets[c+1] {
			return fmt.Errorf("partition: column %d pieces end at %d, want %d", c, next, p.Matrix.Offsets[c+1])
		}
	}
	return nil
}
