package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/sparse"
)

// smallGeo keeps SPU counts small so tiny matrices still exercise every
// range: 1 layer x 4 banks x 8 subarrays = 4 banks x 3 compute SPUs.
func smallGeo() mem.Geometry {
	return mem.Geometry{
		Vaults: 2, Layers: 1, BanksPerLayer: 4, SubarraysPerBank: 8,
		RowBytes: 256, WordBytes: 4, SubarrayRows: 512,
	}
}

func powerLawMatrix(t *testing.T, scale int, seed int64) *sparse.CSC {
	t.Helper()
	m, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 8, A: 0.6, B: 0.17, C: 0.17, Noise: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildHybridValidates(t *testing.T) {
	m := powerLawMatrix(t, 9, 1)
	cfg := DefaultConfig()
	cfg.LongFrac = 0.01
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.LastLong < 0 {
		t.Fatal("hybrid plan found no long vertices on a power-law matrix")
	}
	if p.NumSPUs != 12 {
		t.Fatalf("NumSPUs = %d, want 12", p.NumSPUs)
	}
}

func TestBuildColumnOrientedHasNoLongRegion(t *testing.T) {
	m := powerLawMatrix(t, 9, 2)
	cfg := Config{Scheme: ColumnOriented, Placement: Shuffled, LongFrac: 0.05, Seed: 3}
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.LastLong != -1 {
		t.Fatalf("column-oriented plan has LastLong=%d, want -1", p.LastLong)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildMovesLongVerticesFirst: vertex 7 has the one long column and
// vertex 3 the one long row, so the hybrid relabel puts exactly that union in
// the long region [0, LastLong].
func TestBuildMovesLongVerticesFirst(t *testing.T) {
	coo := sparse.NewCOO(16, 16)
	for i := int32(0); i < 16; i++ {
		coo.Add(i, 7, 1)
		coo.Add(3, i, 1)
	}
	coo.Add(5, 5, 1)
	cfg := DefaultConfig()
	cfg.LongFrac = 0.05 // top 5% of 16: one column and one row
	p, err := Build(sparse.CSCFromCOO(coo), smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.LastLong != 1 || p.Perm.New[7] > 1 || p.Perm.New[3] > 1 {
		t.Fatalf("LastLong=%d, long vertices 7 and 3 relabeled to %d and %d; want both in [0,1]", p.LastLong, p.Perm.New[7], p.Perm.New[3])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Matrix.ColLen(p.Perm.New[7]); got != 16 {
		t.Fatalf("relabeled long column length = %d, want 16", got)
	}
}

// TestBuildRejectsRectangular: relabeling rows and columns by one
// permutation needs a square matrix, whether wide or tall, empty or not.
func TestBuildRejectsRectangular(t *testing.T) {
	for _, shape := range [][2]int32{{4, 6}, {6, 4}} {
		coo := sparse.NewCOO(shape[0], shape[1])
		coo.Add(0, 0, 1)
		coo.Add(shape[0]-1, shape[1]-1, 2)
		if _, err := Build(sparse.CSCFromCOO(coo), smallGeo(), DefaultConfig()); err == nil {
			t.Fatalf("%dx%d matrix accepted", shape[0], shape[1])
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	rect := sparse.CSCFromCOO(sparse.NewCOO(4, 6))
	if _, err := Build(rect, smallGeo(), DefaultConfig()); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	m := powerLawMatrix(t, 8, 3)
	bad := DefaultConfig()
	bad.LongFrac = 2
	if _, err := Build(m, smallGeo(), bad); err == nil {
		t.Fatal("long fraction > 1 accepted")
	}
	g := smallGeo()
	g.SubarraysPerBank = 3
	if _, err := Build(m, g, DefaultConfig()); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestRangesAreBalanced(t *testing.T) {
	m := powerLawMatrix(t, 10, 4)
	p, err := Build(m, smallGeo(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	min64, max64 := int32(1<<30), int32(0)
	for _, r := range p.Ranges {
		if l := r.Len(); l < min64 {
			min64 = l
		} else if l > max64 {
			max64 = l
		}
	}
	if max64 > 0 && max64-min64 > 1 {
		t.Fatalf("range sizes differ by %d, want <= 1", max64-min64)
	}
}

func TestPlacementSameSubarrayKeepsNeighboursTogether(t *testing.T) {
	m := powerLawMatrix(t, 10, 5)
	cfg := Config{Scheme: Hybrid, Placement: SameSubarray, LongFrac: 0.001, Seed: 1}
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count adjacent original-vertex pairs that share an SPU.
	same, total := 0, 0
	for v := int32(0); v < m.NumRows-1; v++ {
		a, b := p.OwnerOf[p.Perm.New[v]], p.OwnerOf[p.Perm.New[v+1]]
		if a < 0 || b < 0 {
			continue
		}
		total++
		if a == b {
			same++
		}
	}
	if total == 0 || float64(same)/float64(total) < 0.9 {
		t.Fatalf("same-subarray adjacency = %d/%d, want >= 90%%", same, total)
	}
}

func TestPlacementDistributedSeparatesNeighbours(t *testing.T) {
	m := powerLawMatrix(t, 10, 6)
	cfg := Config{Scheme: Hybrid, Placement: Distributed, LongFrac: 0.001, Seed: 1}
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, total := 0, 0
	for v := int32(0); v < m.NumRows-1; v++ {
		a, b := p.OwnerOf[p.Perm.New[v]], p.OwnerOf[p.Perm.New[v+1]]
		if a < 0 || b < 0 {
			continue
		}
		total++
		if a == b {
			same++
		}
	}
	if total == 0 || float64(same)/float64(total) > 0.2 {
		t.Fatalf("distributed adjacency = %d/%d, want <= 20%%", same, total)
	}
}

func TestPlacementSameBankStaysWithinBank(t *testing.T) {
	m := powerLawMatrix(t, 10, 7)
	cfg := Config{Scheme: Hybrid, Placement: SameBank, LongFrac: 0.001, Seed: 1}
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := smallGeo().ComputeSPUsPerBank()
	sameBank, diffSPU, total := 0, 0, 0
	for v := int32(0); v < m.NumRows-1; v++ {
		a, b := p.OwnerOf[p.Perm.New[v]], p.OwnerOf[p.Perm.New[v+1]]
		if a < 0 || b < 0 {
			continue
		}
		total++
		if int(a)/per == int(b)/per {
			sameBank++
			if a != b {
				diffSPU++
			}
		}
	}
	if float64(sameBank)/float64(total) < 0.85 {
		t.Fatalf("same-bank adjacency = %d/%d", sameBank, total)
	}
	if diffSPU == 0 {
		t.Fatal("same-bank placement never spread neighbours across the bank's SPUs")
	}
}

func TestLongFragmentsColocatedWithOutput(t *testing.T) {
	m := powerLawMatrix(t, 10, 8)
	cfg := DefaultConfig()
	cfg.LongFrac = 0.005
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.LastLong < 0 {
		t.Skip("no long vertices at this scale")
	}
	// Fig. 2(b): every long-column fragment entry lives with its output row.
	for k := 0; k < p.NumSPUs; k++ {
		for _, es := range p.LongFrags[k] {
			for _, e := range es {
				if !p.Ranges[k].Contains(e.Row) {
					t.Fatalf("SPU %d fragment row %d outside its range %+v", k, e.Row, p.Ranges[k])
				}
			}
		}
	}
}

func TestSPUIDRoundTrip(t *testing.T) {
	m := powerLawMatrix(t, 8, 9)
	p, err := Build(m, smallGeo(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := smallGeo()
	seen := map[mem.SPUID]bool{}
	for k := 0; k < p.NumSPUs; k++ {
		id := p.SPUIDOf(k)
		if id.Layer >= g.Layers || id.Bank >= g.BanksPerLayer || id.SPU >= g.ComputeSPUsPerBank() {
			t.Fatalf("SPU %d maps to invalid id %+v", k, id)
		}
		if seen[id] {
			t.Fatalf("duplicate SPU id %+v", id)
		}
		seen[id] = true
		d := p.DispatcherOf(k)
		if d.Layer != id.Layer || d.Bank != id.Bank || d.SPU != g.SPUsPerBank()-1 {
			t.Fatalf("dispatcher of %d = %+v", k, d)
		}
	}
}

func TestQuickPlanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 7 + rng.Intn(3)
		m, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 4 + rng.Float64()*8,
			A: 0.5, B: 0.2, C: 0.2, Noise: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		cfg := Config{
			Scheme:    Scheme(rng.Intn(3)),
			Placement: Placement(rng.Intn(5)),
			LongFrac:  rng.Float64() * 0.02,
			Replicate: rng.Intn(2) == 0,
			Seed:      seed,
		}
		p, err := Build(m, smallGeo(), cfg)
		if err != nil {
			return false
		}
		return p.Validate() == nil && p.Perm.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRelabeledSpMVMatchesOriginal: partitioning must not change the
// math — SpMV on the relabeled matrix, unpermuted, equals SpMV on the
// original.
func TestQuickRelabeledSpMVMatchesOriginal(t *testing.T) {
	f := func(seed int64) bool {
		m := powerLawMatrixQuick(seed)
		if m == nil {
			return false
		}
		p, err := Build(m, smallGeo(), DefaultConfig())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, m.NumRows)
		for i := range x {
			x[i] = float32(rng.Intn(4))
		}
		y := refSpMV(m, x)
		yp := refSpMV(p.Matrix, sparse.PermuteVector(x, p.Perm))
		back := sparse.UnpermuteVector(yp, p.Perm)
		for i := range y {
			if y[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func powerLawMatrixQuick(seed int64) *sparse.CSC {
	m, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.55, B: 0.2, C: 0.2, Noise: 0.1, Seed: seed})
	if err != nil {
		return nil
	}
	return m
}

func refSpMV(c *sparse.CSC, x []float32) []float32 {
	y := make([]float32, c.NumRows)
	for col := int32(0); col < c.NumCols; col++ {
		rows, vals := c.Col(col)
		for i, r := range rows.All() {
			y[r] += vals[i] * x[col]
		}
	}
	return y
}

func TestPlacementSameVaultStaysWithinVault(t *testing.T) {
	m := powerLawMatrix(t, 10, 17)
	g := smallGeo()
	cfg := Config{Scheme: Hybrid, Placement: SameVault, LongFrac: 0.001, Seed: 1}
	p, err := Build(m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Vault of a flat SPU: via its bank.
	vaultOf := func(flat int32) int {
		return g.VaultOf(p.SPUIDOf(int(flat)).Bank)
	}
	same, total := 0, 0
	for v := int32(0); v < m.NumRows-1; v++ {
		a, b := p.OwnerOf[p.Perm.New[v]], p.OwnerOf[p.Perm.New[v+1]]
		if a < 0 || b < 0 {
			continue
		}
		total++
		if vaultOf(a) == vaultOf(b) {
			same++
		}
	}
	if total == 0 || float64(same)/float64(total) < 0.85 {
		t.Fatalf("same-vault adjacency = %d/%d", same, total)
	}
}

func TestHypoSchemeKeepsLongRegion(t *testing.T) {
	m := powerLawMatrix(t, 10, 18)
	cfg := Config{Scheme: HypoLogicLayer, Placement: Shuffled, LongFrac: 0.01, Seed: 2}
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.LastLong < 0 {
		t.Fatal("hypo scheme lost the long region")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeAndPlacementStrings(t *testing.T) {
	for _, s := range []Scheme{ColumnOriented, Hybrid, HypoLogicLayer, Scheme(99)} {
		if s.String() == "" {
			t.Fatalf("empty string for scheme %d", s)
		}
	}
	for _, pl := range []Placement{Shuffled, SameSubarray, SameBank, SameVault, Distributed, Placement(99)} {
		if pl.String() == "" {
			t.Fatalf("empty string for placement %d", pl)
		}
	}
}

func TestNNZBalancedEqualizesLoad(t *testing.T) {
	m := powerLawMatrix(t, 11, 19)
	loadSpread := func(b Balance) float64 {
		cfg := Config{Scheme: Hybrid, Placement: Shuffled, LongFrac: 0.002, Balance: b, Seed: 1}
		p, err := Build(m, smallGeo(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		// Per-SPU short-column nnz totals.
		var maxL, sum int64
		for _, r := range p.Ranges {
			var l int64
			for v := r.First; v <= r.Last && v >= 0; v++ {
				l += int64(p.Matrix.ColLen(v))
			}
			if l > maxL {
				maxL = l
			}
			sum += l
		}
		return float64(maxL) / (float64(sum) / float64(len(p.Ranges)))
	}
	vertex := loadSpread(VertexBalanced)
	nnz := loadSpread(NNZBalanced)
	if nnz >= vertex {
		t.Fatalf("NNZ balancing did not reduce max/mean load: %.2f vs %.2f", nnz, vertex)
	}
	if nnz > 1.6 {
		t.Fatalf("NNZ-balanced max/mean = %.2f, want near 1", nnz)
	}
}

func TestNNZBalancedPreservesSemantics(t *testing.T) {
	m := powerLawMatrix(t, 9, 20)
	cfg := DefaultConfig()
	cfg.Balance = NNZBalanced
	p, err := Build(m, smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.NumRows)
	for i := range x {
		x[i] = float32(i % 5)
	}
	y := refSpMV(m, x)
	back := sparse.UnpermuteVector(refSpMV(p.Matrix, sparse.PermuteVector(x, p.Perm)), p.Perm)
	for i := range y {
		if y[i] != back[i] {
			t.Fatalf("NNZ balancing changed the math at %d", i)
		}
	}
}
