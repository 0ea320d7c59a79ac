package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// versionConfigs is the Table 4 matrix the equivalence tests sweep.
func versionConfigs() []struct {
	name string
	cfg  partition.Config
} {
	return []struct {
		name string
		cfg  partition.Config
	}{
		{"V1", partition.Config{Scheme: partition.ColumnOriented, Placement: partition.Shuffled, Seed: 1}},
		{"HypoV2", partition.Config{Scheme: partition.HypoLogicLayer, Placement: partition.Shuffled, LongFrac: 0.01, Seed: 1}},
		{"V2", partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.01, Seed: 1}},
		{"V3", partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.01, Replicate: true, Seed: 1}},
	}
}

func machineWithWorkers(t *testing.T, m *sparse.CSC, pcfg partition.Config, sem semiring.Semiring, workers int, mutate func(*Config)) *Machine {
	t.Helper()
	plan, err := partition.Build(m, smallGeo(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Workers = workers
	if mutate != nil {
		mutate(&cfg)
	}
	mach, err := New(plan, sem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// runChained drives iters chained iterations (one with a dense apply) and
// returns every iteration's stats and frontier, for exact comparison.
func runChained(t *testing.T, mach *Machine, entries []FrontierEntry, iters int) ([]IterStats, []*Frontier) {
	t.Helper()
	return runChain(t, mach, entries, iters, true)
}

// runChain is runChained with the dense apply of the second iteration
// optional: without it the chain stays frontier-driven throughout, the
// shape of SSSP and BFS.
func runChain(t *testing.T, mach *Machine, entries []FrontierEntry, iters int, apply bool) ([]IterStats, []*Frontier) {
	t.Helper()
	var stats []IterStats
	var frontiers []*Frontier
	n := mach.Plan().Matrix.NumRows
	for i := 0; i < iters; i++ {
		f, err := mach.DistributeFrontier(entries)
		if err != nil {
			t.Fatal(err)
		}
		opts := IterateOptions{}
		if apply && i == 1 {
			// One dense iteration exercises the sharded apply path.
			y := make([]float32, n)
			for j := range y {
				y[j] = 1
			}
			opts.Apply = &ApplySpec{Alpha: 1, Y: y}
		}
		next, st, err := mach.Iterate(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Hand the consumed input back to the pool so the chain exercises the
		// recycle path; next stays live for the exact comparison.
		mach.Recycle(f)
		stats = append(stats, st)
		frontiers = append(frontiers, next)
		entries = next.Entries()
		if len(entries) == 0 {
			break
		}
		if len(entries) > 200 {
			entries = entries[:200] // keep the chain sparse after the dense apply
		}
	}
	return stats, frontiers
}

// TestParallelMatchesSerialAllVersions is the tentpole's contract: for every
// Table 4 version, a multi-iteration run on the worker pool produces
// bit-identical IterStats (including float times) and frontiers to the
// serial path, at every swept worker count (2, an odd width, and
// GOMAXPROCS). Each version runs two input shapes: a PageRank-like random
// plus-times frontier with one dense apply, and an SSSP-like min-plus chain
// grown from three sources, whose sparse frontiers leave most SPUs idle and
// make the per-destination row-activation tally and the clean-indicator
// pairs depend on how sparse pairs are sharded.
func TestParallelMatchesSerialAllVersions(t *testing.T) {
	m := testMatrix(t, 21)
	inputs := []struct {
		name    string
		sem     semiring.Semiring
		entries []FrontierEntry
		iters   int
		apply   bool
	}{
		{"plustimes-random", semiring.PlusTimes{}, randomFrontier(m.NumRows, 50, 13), 3, true},
		{"minplus-sources", semiring.MinPlus{}, []FrontierEntry{
			{Index: 0, Value: 0}, {Index: m.NumRows / 2, Value: 0.5}, {Index: m.NumRows - 1, Value: 1.25},
		}, 6, false},
	}
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					serial := machineWithWorkers(t, m, vc.cfg, in.sem, 1, nil)
					stS, frS := runChain(t, serial, in.entries, in.iters, in.apply)
					for _, workers := range []int{2, 4, 0} {
						parallel := machineWithWorkers(t, m, vc.cfg, in.sem, workers, nil)
						stP, frP := runChain(t, parallel, in.entries, in.iters, in.apply)
						if !reflect.DeepEqual(stS, stP) {
							t.Fatalf("IterStats diverge between Workers=1 and Workers=%d:\nserial:   %+v\nparallel: %+v", workers, stS, stP)
						}
						if !reflect.DeepEqual(frS, frP) {
							t.Fatalf("frontiers diverge between Workers=1 and Workers=%d", workers)
						}
						if serial.NowNs() != parallel.NowNs() {
							t.Fatalf("clocks diverge at Workers=%d: %v vs %v", workers, serial.NowNs(), parallel.NowNs())
						}
					}
				})
			}
		})
	}
}

// TestParallelMatchesSerialWithErrorInjection pins the per-SPU error streams:
// injected bit flips must land on the same accumulations regardless of
// worker sharding.
func TestParallelMatchesSerialWithErrorInjection(t *testing.T) {
	m := testMatrix(t, 22)
	entries := randomFrontier(m.NumRows, 50, 17)
	inject := func(cfg *Config) {
		cfg.BitErrorRate = 0.05
		cfg.ErrorSeed = 11
	}
	serial := machineWithWorkers(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, 1, inject)
	parallel := machineWithWorkers(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, 7, inject)
	_, frS := runChained(t, serial, entries, 2)
	_, frP := runChained(t, parallel, entries, 2)
	if !reflect.DeepEqual(frS, frP) {
		t.Fatal("corrupted frontiers diverge across worker counts")
	}
	if serial.ErrorsInjected() == 0 {
		t.Fatal("no errors injected")
	}
	if serial.ErrorsInjected() != parallel.ErrorsInjected() {
		t.Fatalf("flip counts diverge: %d vs %d", serial.ErrorsInjected(), parallel.ErrorsInjected())
	}
}

// TestStep6ReplicaReductionDeterministic is the regression test for the
// bankSlots map-iteration bug: the same V3 workload run twice must produce
// identical IterStats, including step 6's float time (the old code folded
// per-vault logic time in Go's randomized map order).
func TestStep6ReplicaReductionDeterministic(t *testing.T) {
	m := testMatrix(t, 23)
	cfg := partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.02, Replicate: true, Seed: 1}
	// A dense frontier activates the long columns so every SPU dirties
	// replica slots and step 6 reduces across many banks.
	entries := make([]FrontierEntry, m.NumRows)
	for i := range entries {
		entries[i] = FrontierEntry{Index: int32(i), Value: 1}
	}
	run := func(workers int) IterStats {
		mach := machineWithWorkers(t, m, cfg, semiring.PlusTimes{}, workers, nil)
		f, err := mach.DistributeFrontier(entries)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := mach.Iterate(f, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.LongAccums == 0 {
			t.Fatal("workload did not touch the replicated long region")
		}
		return st
	}
	a, b := run(1), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same V3 workload produced different IterStats across runs:\n%+v\n%+v", a, b)
	}
	if c := run(6); !reflect.DeepEqual(a, c) {
		t.Fatalf("V3 IterStats diverge between serial and parallel:\n%+v\n%+v", a, c)
	}
}

// TestCorruptDeterministicReplay pins the per-SPU splitmix64 streams: a
// fixed ErrorSeed replays exactly, and BitErrorRate=1 flips every
// accumulated contribution (one corrupt draw per processed non-zero).
func TestCorruptDeterministicReplay(t *testing.T) {
	m := testMatrix(t, 24)
	entries := randomFrontier(m.NumRows, 40, 19)
	run := func(workers int) ([]FrontierEntry, int64, IterStats) {
		mach := machineWithWorkers(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, workers, func(cfg *Config) {
			cfg.BitErrorRate = 1
			cfg.ErrorSeed = 42
		})
		f, err := mach.DistributeFrontier(entries)
		if err != nil {
			t.Fatal(err)
		}
		next, st, err := mach.Iterate(f, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return next.Entries(), mach.ErrorsInjected(), st
	}
	outA, flipsA, stA := run(1)
	outB, flipsB, _ := run(1)
	if flipsA != flipsB || !reflect.DeepEqual(outA, outB) {
		t.Fatal("fixed ErrorSeed did not replay deterministically")
	}
	if flipsA != stA.ProcessedNNZ {
		t.Fatalf("BitErrorRate=1 flipped %d of %d accumulations", flipsA, stA.ProcessedNNZ)
	}
	outC, flipsC, _ := run(5)
	if flipsA != flipsC || !reflect.DeepEqual(outA, outC) {
		t.Fatal("error stream depends on worker sharding")
	}
}

// TestNewRejectsZeroSPUs: a degenerate plan must error out instead of
// poisoning busyStats with a divide-by-zero NaN.
func TestNewRejectsZeroSPUs(t *testing.T) {
	plan := &partition.Plan{Geo: smallGeo(), NumSPUs: 0}
	if _, err := New(plan, semiring.PlusTimes{}, smallConfig()); err == nil {
		t.Fatal("zero-SPU plan accepted")
	}
}

// benchmarkIterate drives repeated PageRank-shaped iterations (dense-ish
// frontier plus dense apply) on a small dataset under the Table 2 geometry.
func benchmarkIterate(b *testing.B, workers int) {
	benchmarkIterateDataset(b, "holly", workers)
}

func benchmarkIterateDataset(b *testing.B, dataset string, workers int) {
	ds, err := gen.Load(dataset, gen.Small)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.Build(ds.Matrix, mem.DefaultGeometry(), partition.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	mach, err := New(plan, semiring.PlusTimes{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Matrix.NumRows
	entries := make([]FrontierEntry, n)
	inv := 1 / float32(n)
	for i := range entries {
		entries[i] = FrontierEntry{Index: int32(i), Value: inv}
	}
	f, err := mach.DistributeFrontier(entries)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = inv
	}
	opts := IterateOptions{Apply: &ApplySpec{Alpha: 0.15, Y: y}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err := mach.Iterate(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Recycle the produced frontier (the reused input f stays live), so
		// the benchmark measures the steady-state zero-allocation path.
		mach.Recycle(next)
	}
}

func BenchmarkIterateSerial(b *testing.B)   { benchmarkIterate(b, 1) }
func BenchmarkIterateParallel(b *testing.B) { benchmarkIterate(b, 0) }

// The skewed pair runs the same workload on the twitter stand-in — the most
// extreme power-law preset (Fig. 5e) — where a few long-fragment-heavy SPUs
// dominate step 3. This is the dataset the dynamic dispensers are judged
// by: the static-shard engine serialized on the hottest SPU here.
func BenchmarkIterateSerialSkewed(b *testing.B) { benchmarkIterateDataset(b, "twitter", 1) }
func BenchmarkIterateParallelSkewed(b *testing.B) {
	benchmarkIterateDataset(b, "twitter", 0)
}

// benchmarkIterateSparseLong drives repeated SSSP-shaped iterations: the
// road stand-in over min-plus, with a sparse frontier of non-integer
// distances that activates every fourth long column (in descending order)
// besides one short vertex in 64. Each long activation touches only the
// few SPUs that hold the column's pieces, so this is the benchmark step 3's
// per-activation cost shows in; the PageRank-shaped benchmarks above
// activate every column.
func benchmarkIterateSparseLong(b *testing.B, workers int) {
	ds, err := gen.Load("road", gen.Small)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.Build(ds.Matrix, mem.DefaultGeometry(), partition.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if plan.LastLong < 0 {
		b.Fatal("road plan has no long region")
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	mach, err := New(plan, semiring.MinPlus{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var entries []FrontierEntry
	for v := plan.LastLong; v >= 0; v -= 4 {
		entries = append(entries, FrontierEntry{Index: v, Value: 0.5 + float32(v)*0.25})
	}
	for v := plan.LastLong + 1; v < ds.Matrix.NumRows; v += 64 {
		entries = append(entries, FrontierEntry{Index: v, Value: 1.5 + float32(v%97)*0.125})
	}
	f, err := mach.DistributeFrontier(entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err := mach.Iterate(f, IterateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		mach.Recycle(next)
	}
}

func BenchmarkIterateSerialSparseLong(b *testing.B)   { benchmarkIterateSparseLong(b, 1) }
func BenchmarkIterateParallelSparseLong(b *testing.B) { benchmarkIterateSparseLong(b, 0) }
