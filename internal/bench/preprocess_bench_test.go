package bench

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/mtx"
	"gearbox/internal/partition"
	"gearbox/internal/sparse"
)

// Preprocessing benchmarks: every stage of the ingest pipeline (.mtx to
// CSC, the COO to CSC build, partition plan, generator) at one, four, and
// all workers, on a >1M-nnz input. The outputs are bit-identical across
// widths — these runs measure only time and allocations.

const (
	preprocDim = 1 << 17
	preprocNNZ = 5 << 18 // 1.31M entries, ≥1M after duplicate merge
)

var (
	preprocOnce sync.Once
	preprocCOO  *sparse.COO // pristine unsorted entries, duplicates included
	preprocMTX  []byte
	preprocCSC  *sparse.CSC
	preprocGeo  mem.Geometry
)

func preprocSetup(b *testing.B) {
	b.Helper()
	preprocOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		m := sparse.NewCOO(preprocDim, preprocDim)
		m.Entries = make([]sparse.Entry, preprocNNZ)
		for i := range m.Entries {
			m.Entries[i] = sparse.Entry{
				Row: rng.Int31n(preprocDim),
				Col: rng.Int31n(preprocDim),
				Val: float32(rng.Intn(9) + 1),
			}
		}
		preprocCOO = m
		var buf bytes.Buffer
		if err := mtx.Write(&buf, m); err != nil {
			panic(err)
		}
		preprocMTX = buf.Bytes()
		preprocCSC = sparse.CSCFromCOO(m)
		preprocGeo = mem.DefaultGeometry()
	})
	if preprocCOO.NNZ() < 1<<20 {
		b.Fatalf("benchmark input has %d nnz, want >= 1M", preprocCOO.NNZ())
	}
}

// workerRuns runs fn under sub-benchmarks at one, four, and all workers.
func workerRuns(b *testing.B, fn func(b *testing.B, workers int)) {
	b.Run("w1", func(b *testing.B) { fn(b, 1) })
	b.Run("w4", func(b *testing.B) { fn(b, 4) })
	b.Run("wmax", func(b *testing.B) { fn(b, 0) })
}

func BenchmarkLoadMTX(b *testing.B) {
	preprocSetup(b)
	workerRuns(b, func(b *testing.B, workers int) {
		b.ReportAllocs()
		b.SetBytes(int64(len(preprocMTX)))
		for i := 0; i < b.N; i++ {
			m, err := mtx.ReadCSCOpts(bytes.NewReader(preprocMTX), mtx.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if m.NNZ() != preprocCSC.NNZ() {
				b.Fatalf("parsed %d entries, want %d", m.NNZ(), preprocCSC.NNZ())
			}
		}
	})
}

// BenchmarkCSCFromCOO times the COO build through sparse.CSCBuilder
// (column tally, placement, then Finish's per-column sort, duplicate merge
// and compaction).
func BenchmarkCSCFromCOO(b *testing.B) {
	preprocSetup(b)
	workerRuns(b, func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c := sparse.CSCFromCOOWorkers(preprocCOO, workers); c.NNZ() != preprocCSC.NNZ() {
				b.Fatalf("built %d entries, want %d", c.NNZ(), preprocCSC.NNZ())
			}
		}
	})
}

func BenchmarkPartitionBuild(b *testing.B) {
	preprocSetup(b)
	workerRuns(b, func(b *testing.B, workers int) {
		cfg := partition.DefaultConfig()
		cfg.Workers = workers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := partition.Build(preprocCSC, preprocGeo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if plan.LastLong < 0 {
				b.Fatal("plan found no long region")
			}
		}
	})
}

func BenchmarkRMAT(b *testing.B) {
	workerRuns(b, func(b *testing.B, workers int) {
		cfg := gen.RMATConfig{
			Scale: 16, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19,
			Noise: 0.1, Seed: 42, Workers: workers,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := gen.RMAT(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if m.NNZ() == 0 {
				b.Fatal("empty RMAT output")
			}
		}
	})
}
