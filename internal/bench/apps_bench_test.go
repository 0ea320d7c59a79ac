package bench

import (
	"testing"

	"gearbox/internal/apps"
	"gearbox/internal/gen"
	"gearbox/internal/partition"
)

// BenchmarkBFSAppSerial drives a full multi-iteration BFS traversal of the
// holly RMAT preset per op — the app-level counterpart of the gearbox
// package's per-iteration benchmarks. Each traversal is dozens of chained
// Iterate calls into one reused output buffer, so allocs/op directly shows
// whether the steady-state path holds up under a real frontier schedule
// (growing, peaking, draining).
func BenchmarkBFSAppSerial(b *testing.B) {
	ds, err := gen.Load("holly", gen.Small)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.DefaultRunConfig()
	// Prebuild the partition once so the benchmark measures the iteration
	// loop, not plan construction.
	plan, err := partition.Build(ds.Matrix, cfg.Machine.Geo, cfg.Partition)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Plan = plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := apps.BFS(ds.Matrix, 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Visited == 0 {
			b.Fatal("BFS visited nothing")
		}
	}
}
