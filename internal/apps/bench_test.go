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
