package par

import (
	"sync/atomic"
	"time"

	"gearbox/internal/obs"
)

// Host-side pool introspection. The simulator's results never depend on
// wall time — instrumentation only measures how well the host's goroutines
// are balanced, so parallelization regressions (one worker carrying a
// skewed block, merge phases dominating) are diagnosable without a profiler
// session. Disabled pools pay a single nil check per
// region.

// Stats is a snapshot of an instrumented pool's host-side counters.
type Stats struct {
	// Workers is the pool width the per-worker slices are indexed by.
	Workers int
	// Regions counts ForEach parallel regions; MergeRegions counts
	// ForEachBlock regions.
	Regions      int64
	MergeRegions int64
	// WorkerBusyNs[w] is the wall time worker w's goroutine spent inside
	// regions; WorkerBlocks[w] counts the blocks it claimed. An idle worker
	// (region narrower than the pool) accrues neither.
	WorkerBusyNs []int64
	WorkerBlocks []int64
	// MergeNs is the wall time spent inside ForEachBlock regions, summed
	// across workers.
	MergeNs int64
	// Chunks counts the blocks all regions dispensed (ForEach chunks and
	// ForEachBlock blocks); Chunks/(Regions+MergeRegions) is the average
	// granularity the dispenser ran at.
	Chunks int64
	// Steals counts blocks executed by a worker other than the one a static
	// partition would have assigned — the load-balancing work the dispenser
	// actually did. Zero steals on a skewed dataset means the blocks are too
	// coarse.
	Steals int64
}

// instr holds the live counters; a nil *instr means instrumentation is off.
type instr struct {
	regions      atomic.Int64
	mergeRegions atomic.Int64
	mergeNs      atomic.Int64
	chunks       atomic.Int64
	steals       atomic.Int64
	busyNs       []atomic.Int64
	blocks       []atomic.Int64
}

// SetInstrumented turns host-side instrumentation on or off. Enable it
// before handing the pool to parallel regions; toggling is not synchronized
// with in-flight regions.
func (p *Pool) SetInstrumented(on bool) {
	if !on {
		p.ins = nil
		return
	}
	if p.ins == nil {
		p.ins = &instr{
			busyNs: make([]atomic.Int64, p.workers),
			blocks: make([]atomic.Int64, p.workers),
		}
	}
}

// Instrumented reports whether the pool is collecting host-side stats.
func (p *Pool) Instrumented() bool { return p.ins != nil }

// Stats snapshots the counters accumulated since instrumentation was enabled
// (or since ResetStats). ok is false when instrumentation is off.
func (p *Pool) Stats() (s Stats, ok bool) {
	ins := p.ins
	if ins == nil {
		return Stats{}, false
	}
	s = Stats{
		Workers:      p.workers,
		Regions:      ins.regions.Load(),
		MergeRegions: ins.mergeRegions.Load(),
		MergeNs:      ins.mergeNs.Load(),
		Chunks:       ins.chunks.Load(),
		Steals:       ins.steals.Load(),
		WorkerBusyNs: make([]int64, p.workers),
		WorkerBlocks: make([]int64, p.workers),
	}
	for w := 0; w < p.workers; w++ {
		s.WorkerBusyNs[w] = ins.busyNs[w].Load()
		s.WorkerBlocks[w] = ins.blocks[w].Load()
	}
	return s, true
}

// ResetStats zeroes the counters, keeping instrumentation enabled.
func (p *Pool) ResetStats() {
	ins := p.ins
	if ins == nil {
		return
	}
	ins.regions.Store(0)
	ins.mergeRegions.Store(0)
	ins.mergeNs.Store(0)
	ins.chunks.Store(0)
	ins.steals.Store(0)
	for w := range ins.busyNs {
		ins.busyNs[w].Store(0)
		ins.blocks[w].Store(0)
	}
}

// workerEnter stamps the start of one worker's share of a region. Every
// host-clock read goes through obs.Now, the repo's one wall-clock
// chokepoint.
func (ins *instr) workerEnter() time.Time {
	return obs.Now()
}

// workerExit books the elapsed share, the blocks claimed and the steals
// against worker w (and the merge total when the region is a ForEachBlock).
func (ins *instr) workerExit(w int, start time.Time, merge bool, blocks, steals int64) {
	d := int64(obs.Since(start))
	ins.busyNs[w].Add(d)
	ins.blocks[w].Add(blocks)
	ins.steals.Add(steals)
	if merge {
		ins.mergeNs.Add(d)
	}
}
