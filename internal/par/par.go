// Package par is a small deterministic fork-join worker pool for the
// simulator's per-SPU step loops. Determinism is the design constraint, not
// throughput tricks: a parallel region always partitions its index space
// into the same contiguous blocks for a given (workers, n) pair, every
// worker receives a stable worker id for private scratch, and the caller is
// expected to merge per-worker or per-index results in fixed index order
// after the join. Under those rules a region's observable effects are
// bit-identical whether it runs on one goroutine or sixteen, which is what
// lets the gearbox machine validate its parallel path against the serial
// one by exact comparison.
//
// Two scheduling families share that contract. ForEach/ForEachBlock assign
// static contiguous ranges — lowest overhead, right for uniform bodies.
// ForEachDynamic/ForEachBlockDynamic (dynamic.go) hand out chunks and guided
// blocks through an atomic dispenser so workers steal work from skewed
// bodies; results stay assignment-independent because effects are tied to
// indexes and block ids, never to the executing worker.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Pool executes parallel-for regions over a fixed worker count.
//
// A Pool carries no region-to-region state beyond optional host-side
// instrumentation (see SetInstrumented) and a cache of pprof label contexts
// (labels.go), and is safe for concurrent use; regions running concurrently
// on one pool (the gearbox machine overlaps step 6's replica reduction with
// its frontier emission) simply fork their own goroutines. Each region forks and
// joins before returning (fork-join costs ~1-2 us per region, negligible
// against the multi-ms step loops it shards).
type Pool struct {
	workers int
	ins     *instr // non-nil while host-side instrumentation is enabled

	// Cached per-(region, worker) pprof label contexts; see labels.go.
	labMu  sync.Mutex
	labels map[string][]context.Context
}

// New returns a pool of the requested width. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 is the serial path (ForEach runs
// inline on the calling goroutine).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width. Worker ids passed to ForEach callbacks
// are always in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// Blocks reports how many contiguous blocks ForEach and ForEachBlock split
// [0, n) into — min(Workers(), n), at least 1 for n > 0. Callers that stage
// per-block scratch (histograms, per-chunk buffers) size it with Blocks(n)
// and index it by the worker id their callback receives: for a fixed n the
// pool always produces the same blocks, so scratch slot w always maps to
// the same index range. (Dynamic-block callers size by GuidedBlocks and key
// by the block id instead; see dynamic.go.)
func (p *Pool) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	if p.workers < n {
		return p.workers
	}
	return n
}

// ForEach runs fn(worker, i) for every i in [0, n), sharding the index
// space into at most Workers() contiguous blocks. Block boundaries depend
// only on (Workers(), n), and every index is visited exactly once, so
// per-index outputs land in deterministic slots; cross-index state must be
// worker-private (keyed by the worker id) and merged by the caller after
// ForEach returns.
//
// fn must not panic across goroutines' shared state assumptions: indexes
// within one block run in ascending order on one goroutine.
func (p *Pool) ForEach(n int, fn func(worker, i int)) {
	p.forEach("foreach", n, fn)
}

// ForEachNamed is ForEach with a region name carried onto the worker
// goroutines' pprof labels, so CPU profiles attribute samples to the named
// region instead of an anonymous spawn func.
func (p *Pool) ForEachNamed(region string, n int, fn func(worker, i int)) {
	p.forEach(region, n, fn)
}

func (p *Pool) forEach(region string, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	ins := p.ins
	if ins != nil {
		ins.regions.Add(1)
		ins.regionEnter()
		defer ins.regionExit()
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		var start time.Time
		if ins != nil {
			start = ins.workerEnter()
		}
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		if ins != nil {
			ins.workerExit(0, start, false)
		}
		return
	}
	ctxs := p.labelCtxs(region)
	var wg sync.WaitGroup
	wg.Add(w)
	for worker := 0; worker < w; worker++ {
		// Balanced contiguous blocks: worker k owns [k*n/w, (k+1)*n/w).
		lo, hi := worker*n/w, (worker+1)*n/w
		go func(worker, lo, hi int) {
			defer wg.Done()
			pprof.SetGoroutineLabels(ctxs[worker])
			var start time.Time
			if ins != nil {
				start = ins.workerEnter()
			}
			for i := lo; i < hi; i++ {
				fn(worker, i)
			}
			if ins != nil {
				ins.workerExit(worker, start, false)
			}
		}(worker, lo, hi)
	}
	wg.Wait()
}

// ForEachBlock runs fn(worker, lo, hi) once per contiguous block of the
// index space [0, n), using the same block boundaries as ForEach (worker k
// owns [k*n/w, (k+1)*n/w)). It is the bulk form of ForEach for callers that
// shard a fold over a key range — e.g. the preprocessing pipeline's
// destination-sharded builds — where the body wants to loop over sources
// itself instead of paying one callback per index. With one worker it runs
// fn(0, 0, n) inline on the calling goroutine.
func (p *Pool) ForEachBlock(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	ins := p.ins
	if ins != nil {
		ins.mergeRegions.Add(1)
		ins.regionEnter()
		defer ins.regionExit()
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		var start time.Time
		if ins != nil {
			start = ins.workerEnter()
		}
		fn(0, 0, n)
		if ins != nil {
			ins.workerExit(0, start, true)
		}
		return
	}
	ctxs := p.labelCtxs("foreachblock")
	var wg sync.WaitGroup
	wg.Add(w)
	for worker := 0; worker < w; worker++ {
		lo, hi := worker*n/w, (worker+1)*n/w
		go func(worker, lo, hi int) {
			defer wg.Done()
			pprof.SetGoroutineLabels(ctxs[worker])
			var start time.Time
			if ins != nil {
				start = ins.workerEnter()
			}
			fn(worker, lo, hi)
			if ins != nil {
				ins.workerExit(worker, start, true)
			}
		}(worker, lo, hi)
	}
	wg.Wait()
}
