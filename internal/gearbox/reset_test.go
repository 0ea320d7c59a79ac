package gearbox

import (
	"reflect"
	"strings"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/telemetry"
)

// chainResult captures everything observable from a chained run, in forms
// that are comparable across distinct machines (frontiers are flattened to
// entry lists, so unexported bookkeeping like the run epoch is not compared).
type chainResult struct {
	stats     []IterStats
	frontiers [][]FrontierEntry
	clock     float64
	injected  int64
	telemetry *telemetry.SpatialStats
}

// runChainedObserved drives iters chained iterations (the second with a
// dense apply, mirroring runChained) with a fresh telemetry sink attached,
// recycling every frontier so the machine's pool is exercised.
func runChainedObserved(t *testing.T, mach *Machine, entries []FrontierEntry, iters int) chainResult {
	t.Helper()
	sink := telemetry.NewSpatialStats(mach.TelemetryShape())
	mach.SetTelemetry(sink)
	defer mach.SetTelemetry(nil)

	res := chainResult{telemetry: sink}
	n := mach.Plan().Matrix.NumRows
	entries = append([]FrontierEntry(nil), entries...)
	for i := 0; i < iters; i++ {
		f, err := mach.DistributeFrontier(entries)
		if err != nil {
			t.Fatal(err)
		}
		opts := IterateOptions{}
		if i == 1 {
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
		mach.Recycle(f)
		res.stats = append(res.stats, st)
		out := next.Entries()
		mach.Recycle(next)
		res.frontiers = append(res.frontiers, out)
		entries = entries[:0]
		entries = append(entries, out...)
		if len(entries) == 0 {
			break
		}
		if len(entries) > 200 {
			entries = entries[:200]
		}
	}
	res.clock = mach.NowNs()
	res.injected = mach.ErrorsInjected()
	return res
}

func compareChains(t *testing.T, label string, fresh, reset chainResult) {
	t.Helper()
	if !reflect.DeepEqual(fresh.stats, reset.stats) {
		t.Fatalf("%s: IterStats diverge between fresh build and reset machine:\nfresh: %+v\nreset: %+v", label, fresh.stats, reset.stats)
	}
	if !reflect.DeepEqual(fresh.frontiers, reset.frontiers) {
		t.Fatalf("%s: frontiers diverge between fresh build and reset machine", label)
	}
	if fresh.clock != reset.clock {
		t.Fatalf("%s: clocks diverge: fresh %v, reset %v", label, fresh.clock, reset.clock)
	}
	if fresh.injected != reset.injected {
		t.Fatalf("%s: injected error counts diverge: fresh %d, reset %d", label, fresh.injected, reset.injected)
	}
	if !reflect.DeepEqual(fresh.telemetry, reset.telemetry) {
		t.Fatalf("%s: telemetry snapshots diverge between fresh build and reset machine", label)
	}
}

// TestResetForRunMatchesFreshBuild is the reset-to-pristine contract: for
// every Table 4 version, (build → run A → ResetForRun →
// run B) is bit-identical — stats, frontiers, clock, telemetry — to
// (fresh build → run B).
func TestResetForRunMatchesFreshBuild(t *testing.T) {
	m := testMatrix(t, 31)
	entriesA := randomFrontier(m.NumRows, 60, 7)
	entriesB := randomFrontier(m.NumRows, 45, 23)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			reused := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			runChainedObserved(t, reused, entriesA, 3)
			// Simulate an aborted run: leave dirt that a completed run
			// would have cleaned itself. ResetForRun must scrub it too.
			reused.output[0] = 42
			if len(reused.logicAcc) > 0 {
				reused.logicAcc[0] = 42
				reused.logicDirty = append(reused.logicDirty, 0)
			}
			reused.ResetForRun(nil)
			reset := runChainedObserved(t, reused, entriesB, 3)

			fresh := runChainedObserved(t, buildMachine(t, m, vc.cfg, semiring.PlusTimes{}), entriesB, 3)
			compareChains(t, vc.name, fresh, reset)
		})
	}
}

// TestResetForRunReseedsErrorStreams pins the error-injection leak: without
// re-seeding, run B's bit flips would continue run A's splitmix64 streams
// and land on different accumulations than a fresh build's.
func TestResetForRunReseedsErrorStreams(t *testing.T) {
	m := testMatrix(t, 32)
	entriesA := randomFrontier(m.NumRows, 60, 3)
	entriesB := randomFrontier(m.NumRows, 60, 5)
	inject := injectErrors(0.05, 9)
	reused := buildMachineWith(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, inject)
	runChainedObserved(t, reused, entriesA, 2)
	if reused.ErrorsInjected() == 0 {
		t.Fatal("run A injected no errors; the regression test has no teeth")
	}
	reused.ResetForRun(nil)
	if reused.ErrorsInjected() != 0 {
		t.Fatalf("ErrorsInjected = %d after reset, want 0", reused.ErrorsInjected())
	}
	reset := runChainedObserved(t, reused, entriesB, 2)
	fresh := runChainedObserved(t, buildMachineWith(t, m, partition.DefaultConfig(), semiring.PlusTimes{}, inject), entriesB, 2)
	compareChains(t, "error-injection", fresh, reset)
}

// TestResetForRunSwapsSemiring lets one pooled machine serve apps over
// different algebras: resetting with a new semiring must behave exactly like
// a fresh build over that semiring (the clean value follows the swap).
func TestResetForRunSwapsSemiring(t *testing.T) {
	m := testMatrix(t, 33)
	entriesA := randomFrontier(m.NumRows, 50, 11)
	entriesB := randomFrontier(m.NumRows, 50, 13)
	for i := range entriesB {
		entriesB[i].Value = 1 // min-plus distances stay meaningful
	}
	cfg := versionConfigs()[3].cfg // V3
	reused := buildMachine(t, m, cfg, semiring.PlusTimes{})
	runChainedObserved(t, reused, entriesA, 2)
	reused.ResetForRun(semiring.MinPlus{})
	reset := runChainedObserved(t, reused, entriesB, 2)
	fresh := runChainedObserved(t, buildMachine(t, m, cfg, semiring.MinPlus{}), entriesB, 2)
	compareChains(t, "semiring-swap", fresh, reset)
}

// TestIterateRejectsStaleFrontier: a frontier distributed before ResetForRun
// must not be iterable afterwards, and recycling it must not poison the
// pristine pool.
func TestIterateRejectsStaleFrontier(t *testing.T) {
	m := testMatrix(t, 34)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	stale, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	mach.ResetForRun(nil)
	if _, _, err := mach.Iterate(stale, IterateOptions{}); err == nil {
		t.Fatal("Iterate accepted a frontier from before ResetForRun")
	} else if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("unexpected error: %v", err)
	}
	poolBefore := len(mach.freeFrontiers)
	mach.Recycle(stale)
	if len(mach.freeFrontiers) != poolBefore {
		t.Fatalf("Recycle admitted a stale frontier into the pool (%d -> %d entries)", poolBefore, len(mach.freeFrontiers))
	}
	// The machine still runs normally after the misuse.
	f, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mach.Iterate(f, IterateOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestIterateRejectsRecycledFrontier: once handed back to the pool, a
// frontier's buffers belong to the machine; iterating it must error rather
// than read buffers the pool may already have handed elsewhere.
func TestIterateRejectsRecycledFrontier(t *testing.T) {
	m := testMatrix(t, 35)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	f, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	mach.Recycle(f)
	if _, _, err := mach.Iterate(f, IterateOptions{}); err == nil {
		t.Fatal("Iterate accepted a recycled frontier")
	} else if !strings.Contains(err.Error(), "recycled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDistributeFrontierTwiceWithoutRecycle: back-to-back distributions must
// hand out distinct frontiers (no aliasing), and both must remain usable and
// recyclable — the pool's double-Recycle guard stays intact throughout.
func TestDistributeFrontierTwiceWithoutRecycle(t *testing.T) {
	m := testMatrix(t, 36)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	e1 := randomFrontier(m.NumRows, 20, 1)
	e2 := randomFrontier(m.NumRows, 25, 2)
	f1, err := mach.DistributeFrontier(e1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := mach.DistributeFrontier(e2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Fatal("DistributeFrontier returned the same frontier twice without an intervening Recycle")
	}
	if got, want := f1.NNZ(), len(e1); got != want {
		t.Fatalf("first frontier corrupted by second distribution: NNZ %d, want %d", got, want)
	}
	if _, _, err := mach.Iterate(f1, IterateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mach.Iterate(f2, IterateOptions{}); err != nil {
		t.Fatal(err)
	}
	mach.Recycle(f1)
	mach.Recycle(f2)
	mach.Recycle(f1) // double-Recycle stays a no-op
	if n := len(mach.freeFrontiers); n != 2 {
		t.Fatalf("pool holds %d frontiers after recycling two distinct ones, want 2", n)
	}
}

// TestResetForRunDetachesSubscribers: a reset machine is pristine, so the
// previous run's trace and telemetry subscribers must not observe the next
// run (they reattach explicitly, exactly as on a fresh build).
func TestResetForRunDetachesSubscribers(t *testing.T) {
	m := testMatrix(t, 37)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	sink := telemetry.NewSpatialStats(mach.TelemetryShape())
	mach.SetTelemetry(sink)
	traced := 0
	mach.SetTrace(func(string, float64) { traced++ })

	f, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mach.Iterate(f, IterateOptions{}); err != nil {
		t.Fatal(err)
	}
	if sink.Iterations != 1 || traced == 0 {
		t.Fatalf("subscribers missed the first run: iterations=%d traced=%d", sink.Iterations, traced)
	}

	mach.ResetForRun(nil)
	tracedBefore := traced
	f, err = mach.DistributeFrontier(randomFrontier(m.NumRows, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mach.Iterate(f, IterateOptions{}); err != nil {
		t.Fatal(err)
	}
	if sink.Iterations != 1 {
		t.Fatalf("detached telemetry sink observed the post-reset run: iterations=%d", sink.Iterations)
	}
	if traced != tracedBefore {
		t.Fatalf("detached trace subscriber observed the post-reset run")
	}
	if mach.NowNs() == 0 {
		t.Fatal("post-reset run did not advance the clock")
	}
}

// TestResetForRunRearmsClock: ResetForRun takes the machine clock back to
// zero, and the next run starts counting from there again.
func TestResetForRunRearmsClock(t *testing.T) {
	m := testMatrix(t, 43)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	run := func(seed int64) float64 {
		t.Helper()
		f, err := mach.DistributeFrontier(randomFrontier(m.NumRows, 20, seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mach.Iterate(f, IterateOptions{}); err != nil {
			t.Fatal(err)
		}
		return mach.NowNs()
	}
	first := run(1)
	if first <= 0 {
		t.Fatalf("first run left the clock at %v", first)
	}
	mach.ResetForRun(nil)
	if mach.NowNs() != 0 {
		t.Fatalf("ResetForRun left the clock at %v", mach.NowNs())
	}
	if again := run(1); again != first {
		t.Fatalf("same run after reset ended at %v ns, first ended at %v ns", again, first)
	}
}
