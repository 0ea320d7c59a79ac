// Package par is a small deterministic fork-join worker pool for the
// preprocessing pipeline (.mtx ingest, CSC build, permutation, partition
// plan, RMAT generation). Determinism is the design constraint, not
// throughput tricks: under the rules below a region's observable effects are
// bit-identical whether it runs on one goroutine or sixteen, which is what
// lets every preprocessing stage be checked against its serial run by exact
// comparison.
//
// There is one scheduling primitive: a region splits [0, n) into nb uniform
// blocks, block b covering BlockRange(n, nb, b), and dispenses block ids
// through one atomic counter, so a worker that drains its block early claims
// the next unclaimed one instead of idling at the barrier. With one worker
// the blocks run inline, in ascending order, on the calling goroutine. Two
// entry points sit on top:
//
//   - ForEach runs a body per index, in auto-width chunks (about eight per
//     worker).
//   - ForEachBlock runs a body per block of a caller-chosen count. It is the
//     destination-sharded shape: each destination lies in exactly one
//     block, so a block that walks its sources in a fixed order writes every
//     destination in that order, whichever worker claims it.
//
// Which worker runs which block is scheduling-dependent, so effects must
// never depend on it. Per-index outputs go to per-index slots. Scratch that
// belongs to a block (a histogram, a kept-entry count) is keyed by the block
// id b, with nb = Blocks(n) when the caller has no geometry of its own.
// Scratch that only accumulates (event counters, order-insensitive tallies)
// is keyed by the worker id and merged in fixed order after the join.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Pool executes parallel-for regions over a fixed worker count.
//
// A Pool carries no region-to-region state beyond optional host-side
// instrumentation (see SetInstrumented) and a cache of pprof label contexts
// (labels.go), and is safe for concurrent use; regions running concurrently
// on one pool simply fork their own goroutines. Each region forks and joins
// before returning.
type Pool struct {
	workers int
	ins     *instr // non-nil while host-side instrumentation is enabled

	// Cached per-(region, worker) pprof label contexts; see labels.go.
	labMu  sync.Mutex
	labels map[string][]context.Context
}

// New returns a pool of the requested width. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 is the serial path (every region runs
// inline on the calling goroutine).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width. Worker ids passed to region bodies are
// always in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// Blocks reports the default block count for a ForEachBlock over [0, n):
// min(Workers(), n), and 0 for n <= 0. Callers that stage per-block scratch
// (histograms, kept-entry counts) size it with Blocks(n), pass the same
// count to ForEachBlock, and index the scratch by block id.
func (p *Pool) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	return min(p.workers, n)
}

// BlockRange reports the half-open index range [lo, hi) of block b when
// [0, n) is split into nb uniform blocks: [b*n/nb, (b+1)*n/nb). Blocks tile
// [0, n) exactly in ascending b.
func BlockRange(n, nb, b int) (lo, hi int) {
	return b * n / nb, (b + 1) * n / nb
}

// ForEach runs fn(worker, i) once for every i in [0, n). Indexes are
// dispensed in contiguous chunks, about eight per worker; each chunk's
// indexes run in ascending order on one goroutine. region names the region
// for pprof labels.
func (p *Pool) ForEach(region string, n int, fn func(worker, i int)) {
	p.run(region, n, min(n, 8*p.workers), fn, nil)
}

// ForEachBlock runs fn(worker, b, lo, hi) once for every block b in
// [0, nb), where [lo, hi) = BlockRange(n, nb, b). The geometry depends only
// on (n, nb), never on the pool width or on which worker claims a block, so
// callers can pre-bucket work by block id. nb < 1 is treated as 1. region
// names the region for pprof labels.
func (p *Pool) ForEachBlock(region string, n, nb int, fn func(worker, b, lo, hi int)) {
	p.run(region, n, max(nb, 1), nil, fn)
}

// run is the one dispenser loop behind both entry points: exactly one of
// idx and blk is non-nil. Taking both function types, rather than wrapping
// idx in a block closure, keeps per-index regions allocation-free on the
// inline path.
func (p *Pool) run(region string, n, nb int, idx func(worker, i int), blk func(worker, b, lo, hi int)) {
	if n <= 0 {
		return
	}
	ins := p.ins
	if ins != nil {
		if blk != nil {
			ins.mergeRegions.Add(1)
		} else {
			ins.regions.Add(1)
		}
		ins.chunks.Add(int64(nb))
	}
	if g := min(p.workers, nb); g > 1 {
		p.spawn(region, n, nb, g, idx, blk)
		return
	}
	var start time.Time
	if ins != nil {
		start = ins.workerEnter()
	}
	for b := 0; b < nb; b++ {
		runBlock(0, n, nb, b, idx, blk)
	}
	if ins != nil {
		ins.workerExit(0, start, blk != nil, int64(nb), 0)
	}
}

// dispenser is one spawned region's shared state, allocated once per region
// so the workers' closures capture a single pointer.
type dispenser struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Bool
	pval     any // the first worker panic, written by the worker that set panicked
}

// spawn runs the region on g goroutines that claim block ids from one
// counter. A panic in a body stops further claims and is re-raised on the
// calling goroutine after the join, so a caller's recover sees it and the
// pool stays usable. It is separate from run so that only the spawn path
// pays for the captured state.
func (p *Pool) spawn(region string, n, nb, g int, idx func(worker, i int), blk func(worker, b, lo, hi int)) {
	ins := p.ins
	ctxs := p.labelCtxs(region)
	d := &dispenser{}
	d.wg.Add(g)
	for worker := 0; worker < g; worker++ {
		go func(worker int) {
			defer d.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					d.next.Store(int64(nb)) // stop further claims
					if d.panicked.CompareAndSwap(false, true) {
						d.pval = r
					}
				}
			}()
			pprof.SetGoroutineLabels(ctxs[worker])
			var start time.Time
			if ins != nil {
				start = ins.workerEnter()
			}
			var claimed, steals int64
			for {
				b := int(d.next.Add(1)) - 1
				if b >= nb {
					break
				}
				// A block run by a worker other than the one a static
				// partition would assign counts as a steal.
				if ins != nil {
					claimed++
					if worker != b*g/nb {
						steals++
					}
				}
				runBlock(worker, n, nb, b, idx, blk)
			}
			if ins != nil {
				ins.workerExit(worker, start, blk != nil, claimed, steals)
			}
		}(worker)
	}
	d.wg.Wait()
	if d.panicked.Load() {
		panic(d.pval)
	}
}

// runBlock executes block b of a region on the given worker.
func runBlock(worker, n, nb, b int, idx func(worker, i int), blk func(worker, b, lo, hi int)) {
	lo, hi := BlockRange(n, nb, b)
	if blk != nil {
		blk(worker, b, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		idx(worker, i)
	}
}
