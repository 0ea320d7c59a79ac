package par

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestStatsDisabledByDefault(t *testing.T) {
	p := New(4)
	if p.Instrumented() {
		t.Fatal("fresh pool must not be instrumented")
	}
	p.ForEach("test", 16, func(worker, i int) {})
	if _, ok := p.Stats(); ok {
		t.Fatal("Stats must report ok=false while instrumentation is off")
	}
	p.ResetStats() // must be a safe no-op
}

func TestStatsAccrue(t *testing.T) {
	p := New(4)
	p.SetInstrumented(true)
	if !p.Instrumented() {
		t.Fatal("SetInstrumented(true) did not engage")
	}
	var visited atomic.Int64
	for r := 0; r < 3; r++ {
		p.ForEach("idx", 64, func(worker, i int) { visited.Add(1) })
	}
	p.ForEachBlock("blk", 64, 12, func(worker, b, lo, hi int) { visited.Add(int64(hi - lo)) })

	s, ok := p.Stats()
	if !ok {
		t.Fatal("Stats must report ok=true while instrumented")
	}
	if s.Workers != 4 {
		t.Errorf("Workers = %d, want 4", s.Workers)
	}
	if s.Regions != 3 || s.MergeRegions != 1 {
		t.Errorf("regions = %d/%d, want 3 ForEach + 1 ForEachBlock", s.Regions, s.MergeRegions)
	}
	var blocks, busy int64
	for w := 0; w < s.Workers; w++ {
		blocks += s.WorkerBlocks[w]
		busy += s.WorkerBusyNs[w]
	}
	// 3 ForEach regions of 8 chunks per worker plus one 12-block region,
	// every block claimed exactly once.
	if want := int64(3*8*4 + 12); s.Chunks != want || blocks != want {
		t.Errorf("chunks = %d, claimed blocks = %d, want %d", s.Chunks, blocks, want)
	}
	if busy <= 0 {
		t.Error("no worker busy time accrued")
	}
	if s.MergeNs <= 0 || s.MergeNs > busy {
		t.Errorf("MergeNs = %d, want within (0, total busy %d]", s.MergeNs, busy)
	}
	if got := visited.Load(); got != 4*64 {
		t.Fatalf("instrumentation perturbed the region: visited %d of %d indices", got, 4*64)
	}
}

func TestStatsResetAndDisable(t *testing.T) {
	p := New(2)
	p.SetInstrumented(true)
	p.ForEach("test", 8, func(worker, i int) {})
	p.ResetStats()
	s, ok := p.Stats()
	if !ok {
		t.Fatal("ResetStats must keep instrumentation enabled")
	}
	if s.Regions != 0 || s.MergeRegions != 0 || s.MergeNs != 0 || s.Chunks != 0 || s.Steals != 0 {
		t.Errorf("counters survive ResetStats: %+v", s)
	}
	for w := range s.WorkerBusyNs {
		if s.WorkerBusyNs[w] != 0 || s.WorkerBlocks[w] != 0 {
			t.Errorf("worker %d counters survive ResetStats", w)
		}
	}
	p.SetInstrumented(false)
	if p.Instrumented() {
		t.Fatal("SetInstrumented(false) did not disable")
	}
	if _, ok := p.Stats(); ok {
		t.Fatal("Stats must report ok=false after disabling")
	}
}

// TestStatsSerialInline covers the workers==1 inline path, which must accrue
// every block into worker 0 without forking.
func TestStatsSerialInline(t *testing.T) {
	p := New(1)
	p.SetInstrumented(true)
	p.ForEach("test", 10, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial pool handed worker id %d", worker)
		}
	})
	s, _ := p.Stats()
	if s.Chunks != 8 || s.WorkerBlocks[0] != 8 || s.WorkerBusyNs[0] <= 0 || s.Steals != 0 {
		t.Fatalf("serial region not attributed to worker 0: %+v", s)
	}
}

// TestDynamicStats: instrumented regions count dispensed chunks for both
// entry points, and a skewed body on a multi-worker pool lets the other
// workers claim blocks a static partition would have assigned elsewhere.
// Steal counts are scheduling-dependent, so the test only logs their
// absence (a single-CPU host may never interleave).
func TestDynamicStats(t *testing.T) {
	p := New(4)
	p.SetInstrumented(true)
	p.ForEachBlock("skewed", 64, 64, func(worker, b, lo, hi int) {
		if b == 0 {
			// One pathologically slow block: whoever claims it is stuck
			// while the other workers claim the rest of the range.
			time.Sleep(20 * time.Millisecond) //gearbox:nondet-ok test-only skew injection; nothing simulated depends on it
		}
	})
	p.ForEach("idx", 64, func(worker, i int) {})
	s, _ := p.Stats()
	if s.Chunks != 64+32 || s.MergeRegions != 1 || s.Regions != 1 {
		t.Fatalf("chunks/merge regions/regions = %d/%d/%d, want 96/1/1", s.Chunks, s.MergeRegions, s.Regions)
	}
	if s.Steals == 0 {
		t.Log("no steals observed (single-CPU host?)")
	}
}
