package apps

import (
	"testing"

	"gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// BenchmarkSSSPRoad runs one whole SSSP per op on a 362x362 road-shaped
// lattice (8% of lattice edges dropped, 5% random shortcuts) at GearboxV3
// on the Table 2 machine. Its frontiers are sparse and chained over dozens
// of iterations, and almost every contribution is a remote accumulation
// through the Dispatchers, so it times steps 3, 5 and 6 per activated
// non-zero in the shape the fixed-frontier iterate benchmarks do not
// cover. The partition and machine are built once; each op resets the
// machine through RunConfig.Reuse, as a served run does.
func BenchmarkSSSPRoad(b *testing.B) {
	const side = 362
	m, err := gen.Grid(gen.GridConfig{Width: side, Height: side, DropFrac: 0.08, ShortcutFrac: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunConfig()
	plan, err := partition.Build(m, cfg.Machine.Geo, cfg.Partition)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := gearbox.New(plan, semiring.MinPlus{}, cfg.Machine)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Plan, cfg.Reuse = plan, mach
	source := int32(side*side/2 + side/2) // the lattice's centre
	var nnz int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SSSP(m, source, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nnz += res.Work.ProcessedNNZ
	}
	b.ReportMetric(float64(nnz)/b.Elapsed().Seconds()/1e6, "Mnnz/s")
}

// BenchmarkPageRankPowerlaw runs one 10-iteration PageRank per op at
// GearboxV3 on an RMAT scale-13, edge-factor-56 matrix with the twitter
// preset's skew (heavy-tailed long columns). Every frontier is dense and
// every iteration applies, so it times the plus-times side of steps 3, 5
// and 6, V3's replica reduction included, where BenchmarkSSSPRoad times
// the min-plus side. The machine is built once and reset per op through
// RunConfig.Reuse, after one untimed run has grown its scratch.
func BenchmarkPageRankPowerlaw(b *testing.B) {
	m, err := gen.RMAT(gen.RMATConfig{
		Scale: 13, EdgeFactor: 56,
		A: 0.65, B: 0.15, C: 0.15, Noise: 0.1, Seed: 5005,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultRunConfig()
	plan, err := partition.Build(m, cfg.Machine.Geo, cfg.Partition)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := gearbox.New(plan, semiring.PlusTimes{}, cfg.Machine)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Plan, cfg.Reuse = plan, mach
	if _, err := PageRank(m, 0.85, 10, cfg); err != nil {
		b.Fatal(err)
	}
	var nnz int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := PageRank(m, 0.85, 10, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nnz += res.Work.ProcessedNNZ
	}
	b.ReportMetric(float64(nnz)/b.Elapsed().Seconds()/1e6, "Mnnz/s")
}
