package par

import (
	"sync/atomic"
	"time"

	"gearbox/internal/obs"
)

// Host-side pool introspection. The simulator's results never depend on
// wall time — instrumentation only measures how well the host's goroutines
// are balanced, so parallelization regressions (one worker carrying a
// skewed block, merge phases dominating) are diagnosable from gearbox-bench
// instead of a profiler session. Disabled pools pay a single nil check per
// region.

// Stats is a snapshot of an instrumented pool's host-side counters.
type Stats struct {
	// Workers is the pool width the per-worker slices are indexed by.
	Workers int
	// Regions counts ForEach parallel regions; MergeRegions counts
	// ForEachBlock regions (the machine's destination-sharded merges).
	Regions      int64
	MergeRegions int64
	// WorkerBusyNs[w] is the wall time worker w's goroutine spent inside
	// callbacks; WorkerBlocks[w] counts the blocks it executed. An idle
	// worker (region narrower than the pool) accrues neither.
	WorkerBusyNs []int64
	WorkerBlocks []int64
	// MergeNs is the wall time spent inside ForEachBlock regions, summed
	// across workers — the host cost of the ordered merges (in the gearbox
	// machine: the logic-layer merges, step 5's pair fold and step 6's
	// replica reduction).
	MergeNs int64
	// DynRegions counts dynamically scheduled regions (ForEachDynamic and
	// ForEachBlockDynamic) and DynChunks the chunks/blocks those regions
	// dispensed; DynChunks/DynRegions is the average granularity the
	// work-stealing loop ran at.
	DynRegions int64
	DynChunks  int64
	// Steals counts chunks executed by a worker other than the one a static
	// partition would have assigned — the load-balancing work the dynamic
	// dispensers actually did. Zero steals on a skewed dataset means the
	// chunk width is too coarse.
	Steals int64
	// OverlapNs is the wall time during which two or more regions were in
	// flight on this pool simultaneously — in the gearbox machine, step 6's
	// replica reduction running alongside its frontier emission. Compare
	// against total region time for an overlap ratio.
	OverlapNs int64
}

// instr holds the live counters; a nil *instr means instrumentation is off.
type instr struct {
	regions      atomic.Int64
	mergeRegions atomic.Int64
	mergeNs      atomic.Int64
	dynRegions   atomic.Int64
	dynChunks    atomic.Int64
	steals       atomic.Int64
	overlapNs    atomic.Int64
	// active tracks how many regions are currently in flight; the 1->2
	// transition stamps overlapStart and the 2->1 transition books the
	// elapsed overlap. The gearbox machine runs at most two concurrent
	// regions (step 6's reduce + emit), so pairwise tracking is exact.
	active       atomic.Int32
	overlapStart atomic.Int64
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
		DynRegions:   ins.dynRegions.Load(),
		DynChunks:    ins.dynChunks.Load(),
		Steals:       ins.steals.Load(),
		OverlapNs:    ins.overlapNs.Load(),
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
	ins.dynRegions.Store(0)
	ins.dynChunks.Store(0)
	ins.steals.Store(0)
	ins.overlapNs.Store(0)
	for w := range ins.busyNs {
		ins.busyNs[w].Store(0)
		ins.blocks[w].Store(0)
	}
}

// regionEnter/regionExit bracket a whole parallel region for overlap
// accounting: time during which >=2 regions are concurrently in flight is
// overlap. Every host-clock read goes through obs.Now, the repo's one
// wall-clock chokepoint.
func (ins *instr) regionEnter() {
	if ins.active.Add(1) == 2 {
		ins.overlapStart.Store(obs.Now().UnixNano())
	}
}

func (ins *instr) regionExit() {
	if ins.active.Add(-1) == 1 {
		ins.overlapNs.Add(obs.Now().UnixNano() - ins.overlapStart.Load())
	}
}

// workerEnter stamps the start of one worker's share of a region.
func (ins *instr) workerEnter() time.Time {
	return obs.Now()
}

// workerExit books the elapsed share against worker w (and the merge total
// when the region is a ForEachBlock).
func (ins *instr) workerExit(w int, start time.Time, merge bool) {
	d := int64(obs.Since(start))
	ins.busyNs[w].Add(d)
	ins.blocks[w].Add(1)
	if merge {
		ins.mergeNs.Add(d)
	}
}
