package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	for _, w := range []int{0, -3} {
		if got, want := New(w).Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("New(%d).Workers() = %d, want %d", w, got, want)
		}
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}

var (
	tableWorkers = []int{1, 2, 3, 7, 16}
	tableSizes   = []int{0, 1, 2, 5, 16, 97}
)

// TestForEachVisitsEveryIndexOnce: every index runs exactly once with an
// in-range worker id, at every (workers, n) in the table.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range tableWorkers {
		for _, n := range tableSizes {
			p := New(workers)
			visits := make([]atomic.Int32, n)
			p.ForEach("test", n, func(worker, i int) {
				if worker < 0 || worker >= p.Workers() {
					t.Errorf("workers=%d n=%d: worker id %d out of range", workers, n, worker)
				}
				visits[i].Add(1)
			})
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachDynamicExactlyOnce: ForEach's chunk dispenser visits every index
// exactly once, with in-range worker ids, when one slow chunk makes the other
// workers claim the rest of the range — at sizes whose chunk width divides n,
// does not, and is a single index.
func TestForEachDynamicExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{3, 8 * workers, 237} {
			visits := make([]atomic.Int32, n)
			p.ForEach("test", n, func(worker, i int) {
				if worker < 0 || worker >= workers {
					t.Errorf("worker id %d out of range [0,%d)", worker, workers)
				}
				if i == 0 {
					time.Sleep(2 * time.Millisecond) //gearbox:nondet-ok test-only skew injection; nothing simulated depends on it
				}
				visits[i].Add(1)
			})
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForEachBlockTilesRange: every block runs exactly once, with an
// in-range worker id, and the blocks tile [0, n) contiguously in ascending
// block id — for block counts below, at and above the pool width.
func TestForEachBlockTilesRange(t *testing.T) {
	for _, workers := range tableWorkers {
		for _, n := range tableSizes {
			for _, nb := range []int{1, (workers + 1) / 2, workers, 3 * workers} {
				nb = min(nb, max(n, 1))
				p := New(workers)
				los := make([]int, nb)
				his := make([]int, nb)
				visits := make([]atomic.Int32, nb)
				p.ForEachBlock("test", n, nb, func(worker, b, lo, hi int) {
					if worker < 0 || worker >= p.Workers() {
						t.Errorf("workers=%d n=%d nb=%d: worker id %d out of range", workers, n, nb, worker)
					}
					visits[b].Add(1)
					los[b], his[b] = lo, hi
				})
				if n == 0 {
					for b := range visits {
						if visits[b].Load() != 0 {
							t.Fatalf("workers=%d nb=%d: empty range ran block %d", workers, nb, b)
						}
					}
					continue
				}
				pos := 0
				for b := range visits {
					if c := visits[b].Load(); c != 1 {
						t.Fatalf("workers=%d n=%d nb=%d: block %d ran %d times", workers, n, nb, b, c)
					}
					if los[b] != pos || his[b] < los[b] {
						t.Fatalf("workers=%d n=%d nb=%d: block %d covers [%d,%d), want lo %d", workers, n, nb, b, los[b], his[b], pos)
					}
					if lo, hi := BlockRange(n, nb, b); lo != los[b] || hi != his[b] {
						t.Fatalf("workers=%d n=%d nb=%d: block %d ran [%d,%d), BlockRange says [%d,%d)", workers, n, nb, b, los[b], his[b], lo, hi)
					}
					pos = his[b]
				}
				if pos != n {
					t.Fatalf("workers=%d n=%d nb=%d: blocks cover [0,%d)", workers, n, nb, pos)
				}
			}
		}
	}
}

// TestSerialPoolRunsInline: one worker runs both entry points on the calling
// goroutine (no locking needed) in ascending order.
func TestSerialPoolRunsInline(t *testing.T) {
	for _, n := range tableSizes {
		p := New(1)
		var order []int
		p.ForEach("test", n, func(worker, i int) {
			if worker != 0 {
				t.Fatalf("serial pool used worker %d", worker)
			}
			order = append(order, i)
		})
		var blocks []int
		p.ForEachBlock("test", n, 4, func(worker, b, lo, hi int) {
			if worker != 0 {
				t.Fatalf("serial pool used worker %d", worker)
			}
			blocks = append(blocks, b)
		})
		if len(order) != n {
			t.Fatalf("n=%d: serial ForEach ran %d indexes", n, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("n=%d: serial order = %v", n, order)
			}
		}
		for i, b := range blocks {
			if b != i {
				t.Fatalf("n=%d: serial block order = %v", n, blocks)
			}
		}
	}
}

// TestMoreWorkersThanWork: a pool wider than the region runs every index
// and block exactly once.
func TestMoreWorkersThanWork(t *testing.T) {
	p := New(32)
	var hits, blocks atomic.Int32
	p.ForEach("test", 3, func(worker, i int) { hits.Add(1) })
	p.ForEachBlock("test", 3, 3, func(worker, b, lo, hi int) { blocks.Add(int32(hi - lo)) })
	if hits.Load() != 3 || blocks.Load() != 3 {
		t.Fatalf("hits = %d, block coverage = %d, want 3 and 3", hits.Load(), blocks.Load())
	}
}

// TestWorkerPanicReachesCaller: a body panic on a spawned worker is re-raised
// on the calling goroutine, where recover catches it, and the pool then runs
// a further region correctly.
func TestWorkerPanicReachesCaller(t *testing.T) {
	p := New(4)
	for _, form := range []string{"ForEach", "ForEachBlock"} {
		got := func() (r any) {
			defer func() { r = recover() }()
			if form == "ForEach" {
				p.ForEach("boom", 64, func(worker, i int) {
					if i == 37 {
						panic("boom")
					}
				})
			} else {
				p.ForEachBlock("boom", 64, 16, func(worker, b, lo, hi int) {
					if b == 9 {
						panic("boom")
					}
				})
			}
			return nil
		}()
		if got != "boom" {
			t.Fatalf("%s: recovered %v, want the body's panic value", form, got)
		}
		var sum atomic.Int64
		p.ForEach("after", 100, func(worker, i int) { sum.Add(int64(i)) })
		if sum.Load() != 4950 {
			t.Fatalf("%s: pool after a panic summed %d, want 4950", form, sum.Load())
		}
	}
}

// TestWorkerLabels: the cached label contexts carry the region name and
// worker id, and the cache returns the same backing slice on reuse (the
// steady-state no-allocation property).
func TestWorkerLabels(t *testing.T) {
	p := New(3)
	ctxs := p.labelCtxs("step3-compute")
	if len(ctxs) != 3 {
		t.Fatalf("got %d label contexts, want 3", len(ctxs))
	}
	for w, ctx := range ctxs {
		labels := map[string]string{}
		pprof.ForLabels(ctx, func(key, value string) bool {
			labels[key] = value
			return true
		})
		if labels["par_region"] != "step3-compute" {
			t.Fatalf("worker %d: par_region = %q", w, labels["par_region"])
		}
		if want := map[int]string{0: "0", 1: "1", 2: "2"}[w]; labels["par_worker"] != want {
			t.Fatalf("worker %d: par_worker = %q, want %q", w, labels["par_worker"], want)
		}
	}
	again := p.labelCtxs("step3-compute")
	if &again[0] != &ctxs[0] {
		t.Fatal("labelCtxs rebuilt the context slice instead of caching it")
	}
	var _ context.Context = ctxs[0]
}
