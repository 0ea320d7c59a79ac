package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// versionConfigs is the Table 4 matrix the version-sweeping tests run.
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

// injectErrors returns a Config mutation that turns on bit-error injection.
func injectErrors(rate float64, seed uint64) func(*Config) {
	return func(cfg *Config) {
		cfg.BitErrorRate = rate
		cfg.ErrorSeed = seed
	}
}

// runChained drives iters chained iterations (one with a dense apply) and
// returns every iteration's stats and frontier, for exact comparison.
func runChained(t *testing.T, mach *Machine, entries []FrontierEntry, iters int) ([]IterStats, [][]FrontierEntry) {
	t.Helper()
	return runChain(t, mach, entries, iters, true)
}

// runChain is runChained with the dense apply of the second iteration
// optional: without it the chain stays frontier-driven throughout, the
// shape of SSSP and BFS.
func runChain(t *testing.T, mach *Machine, entries []FrontierEntry, iters int, apply bool) ([]IterStats, [][]FrontierEntry) {
	t.Helper()
	var stats []IterStats
	var frontiers [][]FrontierEntry
	n := mach.Plan().Matrix.NumRows
	for i := 0; i < iters; i++ {
		opts := IterateOptions{}
		if apply && i == 1 {
			// One dense iteration exercises the apply path.
			y := make([]float32, n)
			for j := range y {
				y[j] = 1
			}
			opts.Apply = &ApplySpec{Alpha: 1, Y: y}
		}
		next, st, err := mach.Iterate(nil, entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		frontiers = append(frontiers, next)
		entries = next
		if len(entries) == 0 {
			break
		}
		if len(entries) > 200 {
			entries = entries[:200] // keep the chain sparse after the dense apply
		}
	}
	return stats, frontiers
}

// goldenInput is one chained run the iterateGolden digests pin per Table 4
// version.
type goldenInput struct {
	name    string
	sem     semiring.Semiring
	entries []FrontierEntry
	iters   int
	apply   bool
}

// goldenInputs lists one run per shipped algebra over an n-row matrix: a
// PageRank-like random plus-times frontier with one dense apply, an
// SSSP-like min-plus chain grown from three sources, a BFS-like
// bool-or-and chain with one dense apply, and a connected-components-like
// min-first chain whose labels are the source indexes.
func goldenInputs(n int32) []goldenInput {
	labels := randomFrontier(n, 12, 5)
	for i := range labels {
		labels[i].Value = float32(labels[i].Index)
	}
	return []goldenInput{
		{"plustimes-random", semiring.PlusTimes{}, randomFrontier(n, 50, 13), 3, true},
		{"minplus-sources", semiring.MinPlus{}, []FrontierEntry{
			{Index: 0, Value: 0}, {Index: n / 2, Value: 0.5}, {Index: n - 1, Value: 1.25},
		}, 6, false},
		{"boolorand-sources", semiring.BoolOrAnd{}, []FrontierEntry{
			{Index: 1, Value: 1}, {Index: n / 3, Value: 1}, {Index: n - 2, Value: 1},
		}, 4, true},
		{"minfirst-labels", semiring.MinFirst{}, labels, 6, false},
	}
}

// TestParallelMatchesSerialAllVersions pins, for every Table 4 version, a
// multi-iteration run's IterStats (including float times), frontiers and
// clock to the iterateGolden digests, which the worker-pool engine produced
// at every worker count; the name dates from when this test compared that
// engine's worker counts directly. Each version runs two input shapes: a
// PageRank-like random plus-times frontier with one dense apply, and an
// SSSP-like min-plus chain grown from three sources, whose sparse frontiers
// leave most SPUs idle and exercise the per-destination row-activation
// tally and the clean-indicator pairs.
func TestParallelMatchesSerialAllVersions(t *testing.T) {
	m := testMatrix(t, 21)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			for _, in := range goldenInputs(m.NumRows) {
				t.Run(in.name, func(t *testing.T) {
					mach := buildMachine(t, m, vc.cfg, in.sem)
					st, fr := runChain(t, mach, in.entries, in.iters, in.apply)
					checkGolden(t, vc.name+"/"+in.name, digestRun(mach, st, fr))
				})
			}
		})
	}
}

// wrappedSemiring is an algebra declared outside internal/semiring, so the
// machine can only reach it through the semiring.Semiring interface.
type wrappedSemiring struct{ semiring.Semiring }

// TestSemiringInterfaceFallbackMatchesGolden runs every golden input through
// a wrapped copy of its algebra: the interface fallback must fold exactly
// like the built-in algebra it wraps, on a fresh machine and on one that
// ResetForRun switched over from the built-in algebra.
func TestSemiringInterfaceFallbackMatchesGolden(t *testing.T) {
	m := testMatrix(t, 21)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			for _, in := range goldenInputs(m.NumRows) {
				t.Run(in.name, func(t *testing.T) {
					key := vc.name + "/" + in.name
					mach := buildMachine(t, m, vc.cfg, wrappedSemiring{in.sem})
					st, fr := runChain(t, mach, in.entries, in.iters, in.apply)
					checkGolden(t, key, digestRun(mach, st, fr))

					mach = buildMachine(t, m, vc.cfg, in.sem)
					runChain(t, mach, in.entries, in.iters, in.apply)
					mach.ResetForRun(wrappedSemiring{in.sem})
					st, fr = runChain(t, mach, in.entries, in.iters, in.apply)
					checkGolden(t, key, digestRun(mach, st, fr))
				})
			}
		})
	}
}

// TestParallelMatchesSerialWithErrorInjection pins the per-SPU error
// streams: injected bit flips land on the same accumulations as in the
// iterateGolden run.
func TestParallelMatchesSerialWithErrorInjection(t *testing.T) {
	m := testMatrix(t, 22)
	entries := randomFrontier(m.NumRows, 50, 17)
	mach := buildMachineWith(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, injectErrors(0.05, 11))
	st, fr := runChained(t, mach, entries, 2)
	if mach.ErrorsInjected() == 0 {
		t.Fatal("no errors injected")
	}
	checkGolden(t, "error-injection", digestRun(mach, st, fr))
}

// TestStep6ReplicaReductionDeterministic is the regression test for the
// bankSlots map-iteration bug: the same V3 workload run twice must produce
// identical IterStats, including step 6's float time (the old code folded
// per-vault logic time in Go's randomized map order), and match its
// iterateGolden digest.
func TestStep6ReplicaReductionDeterministic(t *testing.T) {
	m := testMatrix(t, 23)
	cfg := partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.02, Replicate: true, Seed: 1}
	// A dense frontier activates the long columns so every SPU dirties
	// replica slots and step 6 reduces across many banks. Non-integer
	// values make the float sums depend on the order step 6 folds the
	// replicas in, so the digest catches a reordered reduction.
	entries := make([]FrontierEntry, m.NumRows)
	for i := range entries {
		entries[i] = FrontierEntry{Index: int32(i), Value: 1 / float32(i+3)}
	}
	run := func() (IterStats, uint64) {
		mach := buildMachine(t, m, cfg, semiring.PlusTimes{})
		next, st, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.LongAccums == 0 {
			t.Fatal("workload did not touch the replicated long region")
		}
		return st, digestRun(mach, []IterStats{st}, [][]FrontierEntry{next})
	}
	a, digest := run()
	if b, _ := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same V3 workload produced different IterStats across runs:\n%+v\n%+v", a, b)
	}
	checkGolden(t, "v3-reduction", digest)
}

// TestCorruptDeterministicReplay pins the per-SPU splitmix64 streams: a
// fixed ErrorSeed replays exactly, and BitErrorRate=1 flips every
// accumulated contribution (one corrupt draw per processed non-zero).
func TestCorruptDeterministicReplay(t *testing.T) {
	m := testMatrix(t, 24)
	entries := randomFrontier(m.NumRows, 40, 19)
	run := func() ([]FrontierEntry, int64, IterStats) {
		mach := buildMachineWith(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, injectErrors(1, 42))
		next, st, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return next, mach.ErrorsInjected(), st
	}
	outA, flipsA, stA := run()
	outB, flipsB, _ := run()
	if flipsA != flipsB || !reflect.DeepEqual(outA, outB) {
		t.Fatal("fixed ErrorSeed did not replay deterministically")
	}
	if flipsA != stA.ProcessedNNZ {
		t.Fatalf("BitErrorRate=1 flipped %d of %d accumulations", flipsA, stA.ProcessedNNZ)
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
func benchmarkIterate(b *testing.B) {
	benchmarkIterateDataset(b, "holly")
}

func benchmarkIterateDataset(b *testing.B, dataset string) {
	ds, err := gen.Load(dataset, gen.Small)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.Build(ds.Matrix, mem.DefaultGeometry(), partition.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	mach, err := New(plan, semiring.PlusTimes{}, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := ds.Matrix.NumRows
	entries := make([]FrontierEntry, n)
	inv := 1 / float32(n)
	for i := range entries {
		entries[i] = FrontierEntry{Index: int32(i), Value: inv}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = inv
	}
	opts := IterateOptions{Apply: &ApplySpec{Alpha: 0.15, Y: y}}
	// Each iteration pays step 1's split of the input, as every app does;
	// the reused output buffer keeps it on the steady-state
	// zero-allocation path. One untimed iteration grows the machine's
	// scratch first, so the timed ones measure the steady state.
	next, _, err := mach.Iterate(nil, entries, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err = mach.Iterate(next[:0], entries, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterateSerial(b *testing.B) { benchmarkIterate(b) }

// The skewed variant runs the same workload on the twitter stand-in — the
// most extreme power-law preset (Fig. 5e) — where a few
// long-fragment-heavy SPUs dominate step 3.
func BenchmarkIterateSerialSkewed(b *testing.B) { benchmarkIterateDataset(b, "twitter") }

// benchmarkIterateSparseLong drives repeated SSSP-shaped iterations: the
// road stand-in over min-plus, with a sparse frontier of non-integer
// distances that activates every fourth long column (in descending order)
// besides one short vertex in 64. Each long activation touches only the
// few SPUs that hold the column's pieces, so this is the benchmark step 3's
// per-activation cost shows in; the PageRank-shaped benchmarks above
// activate every column.
func benchmarkIterateSparseLong(b *testing.B) {
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
	mach, err := New(plan, semiring.MinPlus{}, DefaultConfig())
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
	// Warm up untimed, as benchmarkIterateDataset does.
	next, _, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err = mach.Iterate(next[:0], entries, IterateOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIterateSerialSparseLong(b *testing.B) { benchmarkIterateSparseLong(b) }
