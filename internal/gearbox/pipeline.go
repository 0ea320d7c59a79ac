package gearbox

// The step 3 compute/merge software pipeline. step3LocalAccumulations splits
// the frontier into chunks of chunkSPUs contiguous source SPUs; while the
// worker pool computes chunk c+1 (shard-private: each SPU writes only its own
// output shard, replica, dirty lists and emit buckets), a merge-stage
// goroutine drains chunk c's emit buckets into the shared receive buffers and
// accumulators. The two phases touch disjoint state — compute writes the
// chunk's per-SPU buffers, the merge reads a different (already computed)
// chunk's buffers and writes only destination-sharded state compute never
// touches — so the overlap is race-free, and it hides the merge's host cost
// behind the compute of the next chunk.
//
// Bit-identity survives chunking because chunks partition the SOURCE SPU
// space contiguously and in order: every merge pass scans its window's
// sources in ascending SPU order, so a destination's receive order across
// the whole iteration is (chunk ascending, source SPU ascending within the
// chunk) — which is exactly global ascending source SPU, the serial path's
// order, at ANY chunk width and worker count. The same argument pins each
// logic-accumulator slot's float fold order.
//
// Backpressure is the double-buffer discipline: compute of chunk c only
// starts once merges through chunk c-2 have retired, so at most two chunks of
// un-merged emit data are in flight. The sync state below is machine-owned
// (mutex + cond allocated once at New) and every stage function is pre-bound
// in bindWorkerFns, so steady-state iterations allocate nothing here beyond
// the one merge-stage goroutine spawn.

import (
	"sync"

	"gearbox/internal/telemetry"
)

// pipeline is the compute/merge chunk ledger: computed and merged are
// cursors (chunks done so far this iteration), nc the chunk count of the
// current run. runs/chunks/inFlightMax accumulate across iterations for
// host-side introspection (Machine.PipelineStats).
type pipeline struct {
	mu   sync.Mutex
	cond *sync.Cond

	nc       int
	computed int
	merged   int

	inFlightMax int
	runs        int64
	chunks      int64
}

// reset opens a new pipelined iteration of nc chunks.
func (p *pipeline) reset(nc int) {
	p.mu.Lock()
	p.nc, p.computed, p.merged = nc, 0, 0
	p.runs++
	p.chunks += int64(nc)
	p.mu.Unlock()
}

// doneCompute retires chunk c from the compute stage and wakes the merge
// stage; it also tracks the high-water count of computed-but-unmerged chunks.
func (p *pipeline) doneCompute(c int) {
	p.mu.Lock()
	p.computed = c + 1
	if f := p.computed - p.merged; f > p.inFlightMax {
		p.inFlightMax = f
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitComputed blocks until chunk c has been computed.
func (p *pipeline) waitComputed(c int) {
	p.mu.Lock()
	for p.computed < c+1 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// doneMerge retires chunk c from the merge stage and wakes the compute stage.
func (p *pipeline) doneMerge(c int) {
	p.mu.Lock()
	p.merged = c + 1
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitMerged blocks until chunk c has been merged; c < 0 returns immediately
// (the first two chunks have no backpressure).
func (p *pipeline) waitMerged(c int) {
	if c < 0 {
		return
	}
	p.mu.Lock()
	for p.merged < c+1 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// step3MergeStage is the merge half of the pipeline, run on its own
// goroutine (bound to fnMergeStage at New): drain each chunk as soon as it
// is computed, in chunk order.
//
//gearbox:steadystate
func (m *Machine) step3MergeStage() {
	n := m.plan.NumSPUs
	nc := m.pipe.nc // fixed by reset() before the stage goroutine starts
	for c := 0; c < nc; c++ {
		m.pipe.waitComputed(c)
		lo := c * m.chunkSPUs
		hi := lo + m.chunkSPUs
		if hi > n {
			hi = n
		}
		m.mergeLo, m.mergeHi = lo, hi
		m.runStep3Merge()
		m.pipe.doneMerge(c)
	}
}

// runStep3Merge folds the emit buckets of the source window [mergeLo,
// mergeHi) into the destination-sharded shared state: dispatcher pairs into
// the receive buffers, then (HypoGearboxV2) short accumulations into owner
// shards, then logic-layer contributions into the accumulator. Blocks are
// dispensed dynamically, but each destination belongs to exactly one guided
// block, so per-destination order is fixed regardless of which worker claims
// which block.
//
//gearbox:steadystate
func (m *Machine) runStep3Merge() {
	m.pool.ForEachBlockDynamic("step3-merge-pairs", m.plan.NumSPUs, m.fnMergePairs)
	if m.hypo {
		m.pool.ForEachBlockDynamic("step3-merge-short", m.plan.NumSPUs, m.fnMergeHypoShort)
	}
	m.pool.ForEachBlockDynamic("step3-merge-logic", int(m.plan.LastLong)+1, m.fnMergeLogic)
}

// runStep6Reduce is the V3 replica reduction sharded by logic-accumulator
// slot: one serial pass files every SPU's dirty replica slots, SPUs in
// ascending order, into the bucket of the guided block that owns the slot;
// then the blocks over [0, LastLong] each fold their own bucket, so each
// slot's float fold order matches the serial path and no block scans
// another's slots. With apply disabled it overlaps the frontier-emit region
// (see step6Applying); the two touch disjoint state (long
// replicas/accumulator and the reduce buckets vs short output/frontier
// buckets).
//
//gearbox:steadystate
func (m *Machine) runStep6Reduce() {
	for b := range m.redBucket {
		m.redBucket[b] = m.redBucket[b][:0]
	}
	for k, dl := range m.dirtyLong {
		for _, r := range dl {
			b := m.redBlockOf[r]
			m.redBucket[b] = append(m.redBucket[b], uint64(k)<<32|uint64(uint32(r))) //gearbox:alloc-ok recycled reduce bucket; grows to its high-water mark
		}
	}
	m.pool.ForEachBlockDynamic("step6-reduce", int(m.plan.LastLong)+1, m.fnReduceRep)
}

// PipelineStats snapshots the step 3 pipeline's host-side occupancy
// counters. Like par.Pool.Stats these are wall-clock-side observability, not
// simulated state, which is why they are a Machine method rather than part
// of the telemetry.Sink contract (Sink values must be bit-identical at any
// Workers setting; chunk occupancy is not).
func (m *Machine) PipelineStats() telemetry.PipelineStats {
	m.pipe.mu.Lock()
	defer m.pipe.mu.Unlock()
	return telemetry.PipelineStats{
		Runs:        m.pipe.runs,
		Chunks:      m.pipe.chunks,
		ChunkSPUs:   m.chunkSPUs,
		InFlightMax: m.pipe.inFlightMax,
	}
}
