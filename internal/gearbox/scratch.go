package gearbox

// Pooled per-iteration scratch and the frontier recycle API. Everything here
// exists so that steady-state Iterate allocates nothing: counter slices the
// steps previously made per call, the per-destination and per-bank pair
// counts of steps 3-5, the epoch-stamped slot marks that replaced step 6's
// per-bank maps, and the pool of Frontier shells that DistributeFrontier and
// step 6 draw from once applications opt in with Recycle. The worker-loop bodies are bound to the
// machine once at New: a func literal passed to par.Pool.ForEach escapes to
// the heap (the pool may run it on a fresh goroutine), so creating it per
// Iterate would cost one allocation per parallel region.

import "gearbox/internal/par"

type packCounters struct{ instrs, acts int64 }

type scatCounters struct {
	ev        Events
	cleanHits int64
}

type emitCounters struct {
	ev          Events
	frontierOut int64
}

// mergeCounters is one worker's private state for the block-sharded
// logic-layer merges of step 3 and the step 6 replica reduction: clean
// transitions observed in the worker's region, and logic slots that turned
// non-clean there (concatenated after the barrier; step 6 sorts and dedups
// before anything observable reads them).
type mergeCounters struct {
	cleanHits  int64
	logicDirty []int32
}

// foldTally is one destination SPU's step 5 ScatterAccumulate cost, built
// up pair by pair in receive order by the block that owns the destination.
type foldTally struct {
	instr, randActs, lastRow int64
}

type scratch struct {
	packPW  []packCounters
	s3PW    []step3Counters
	scatPW  []scatCounters
	applyPW []Events
	emitPW  []emitCounters
	mergePW []mergeCounters
	// redPW[w][bf] is worker w's share of the step 6 distinct-slot count
	// for flat bank bf (the slot-sharded replica reduction counts marks
	// worker-privately; integer sums fold order-insensitively in the tail).
	redPW [][]int64

	// recv[d] is the number of dispatcher pairs bound for destination SPU d
	// this iteration, summed from the step 3 workers' private tallies;
	// recvPerBank folds it by the destination's bank. Steps 3 and 4 both
	// charge the Dispatchers by recvPerBank.
	recv               []int64
	recvPerBank        []int64
	fold               []foldTally
	logicPairsPerVault []int64
	logicPerVault      []float64

	// bankSlotMark[bf][r] == epoch marks long slot r as already counted for
	// flat bank bf this iteration; bankSlotCount[bf] is the distinct-slot
	// count (all the old per-bank map[int32]bool was consulted for). Marks
	// are allocated eagerly for every bank on replicating machines: the
	// parallel reduction may touch any bank's marks from any worker, so a
	// lazy first-touch allocation would race.
	bankSlotMark  [][]int32
	bankSlotCount []int64
	epoch         int32
}

// initScratch sizes the pooled buffers and binds the worker-loop bodies.
func (m *Machine) initScratch() {
	w := m.pool.Workers()
	banks := m.cfg.Geo.Layers * m.cfg.Geo.BanksPerLayer
	m.scr = scratch{
		packPW:             make([]packCounters, w),
		s3PW:               make([]step3Counters, w),
		scatPW:             make([]scatCounters, w),
		applyPW:            make([]Events, w),
		emitPW:             make([]emitCounters, w),
		mergePW:            make([]mergeCounters, w),
		recv:               make([]int64, m.plan.NumSPUs),
		recvPerBank:        make([]int64, banks),
		fold:               make([]foldTally, m.plan.NumSPUs),
		logicPairsPerVault: make([]int64, m.cfg.Geo.Vaults),
		logicPerVault:      make([]float64, m.cfg.Geo.Vaults),
		bankSlotMark:       make([][]int32, banks),
		bankSlotCount:      make([]int64, banks),
	}
	m.scr.redPW = make([][]int64, w)
	for i := range m.scr.redPW {
		m.scr.redPW[i] = make([]int64, banks)
		m.scr.s3PW[i].recv = make([]int64, m.plan.NumSPUs)
	}
	// Destination-block bucketing for the step 3 -> step 5 pair path: each
	// SPU emits into one bucket per step 5 block, and the worker that claims
	// block b folds only bucket b of every emitting source — contiguous
	// runs, no per-pair filtering. The block geometry depends only on
	// (Workers, NumSPUs), both fixed for the life of the machine, so the
	// block map is precomputed here once.
	nLong := int(m.plan.LastLong) + 1
	m.dstBlocks = foldBlocks(w, m.plan.NumSPUs)
	m.slotBlocks = foldBlocks(w, nLong)
	m.dstBlockOf = blockMap(m.plan.NumSPUs, m.dstBlocks)
	for k := range m.emit {
		m.emit[k].bKey = make([][]uint64, m.dstBlocks)
		m.emit[k].bVal = make([][]float32, m.dstBlocks)
	}
	if m.replicate && nLong > 0 {
		for bf := range m.scr.bankSlotMark {
			m.scr.bankSlotMark[bf] = make([]int32, nLong)
		}
		// The same for the step 6 replica reduction: dirty slots are
		// bucketed by the reduce block that owns them, so block b reads
		// only bucket b.
		m.redBlockOf = blockMap(nLong, m.slotBlocks)
		m.redBucket = make([][]uint64, m.slotBlocks)
	}
	m.bindWorkerFns()
}

// foldBlocks is the block count of a destination-sharded fold over n
// destinations on a pool of the given width: three blocks per worker, so
// a hot block late in the region leaves the others to rebalance; one
// block per worker when n < 4*workers, and one block on a serial pool.
func foldBlocks(workers, n int) int {
	switch {
	case n <= 0:
		return 0
	case workers == 1:
		return 1
	case n < 4*workers:
		return min(workers, n)
	}
	return 3 * workers
}

// blockMap maps each index of [0, n) to the par.BlockRange block of nb
// that holds it.
func blockMap(n, nb int) []int32 {
	of := make([]int32, n)
	for b := 0; b < nb; b++ {
		lo, hi := par.BlockRange(n, nb, b)
		for i := lo; i < hi; i++ {
			of[i] = int32(b)
		}
	}
	return of
}

// Recycle hands a frontier back to the machine's reuse pool. It is the
// caller's declaration that nothing aliases the frontier's entry slices any
// more: DistributeFrontier and Iterate will reuse the backing arrays for
// later frontiers. Recycling nil, a frontier built for another machine, a
// frontier from before the last ResetForRun, or a frontier already in the
// pool is a safe no-op (the pooled flag guards double-Recycle, which would
// otherwise hand the same arrays to two owners; the epoch guard keeps
// pre-reset stragglers out of the pristine pool). Never recycle a frontier
// that is an argument of an in-flight Iterate.
//
//gearbox:steadystate
func (m *Machine) Recycle(f *Frontier) {
	if f == nil || f.pooled || f.epoch != m.runEpoch || len(f.Local) != m.plan.NumSPUs {
		return
	}
	f.Long = f.Long[:0]
	for k := range f.Local {
		if f.Local[k] != nil {
			f.Local[k] = f.Local[k][:0]
		}
	}
	f.pooled = true
	m.freeFrontiers = append(m.freeFrontiers, f) //gearbox:alloc-ok pool bookkeeping; grows to the number of distinct frontiers
}

// getFrontier pops a recycled frontier shell, or builds a fresh one. The
// pooled flag is cleared so frontiers observed outside the machine are never
// marked (reflect.DeepEqual over frontiers stays meaningful in tests), and
// the shell is stamped with the current run epoch so it stays usable until
// the next ResetForRun.
//
//gearbox:steadystate
func (m *Machine) getFrontier() *Frontier {
	if n := len(m.freeFrontiers); n > 0 {
		f := m.freeFrontiers[n-1]
		m.freeFrontiers[n-1] = nil
		m.freeFrontiers = m.freeFrontiers[:n-1]
		f.pooled = false
		f.epoch = m.runEpoch
		return f
	}
	return &Frontier{Local: make([][]FrontierEntry, m.plan.NumSPUs), epoch: m.runEpoch} //gearbox:alloc-ok pool miss: only before the recycle pool reaches steady state
}

// bindWorkerFns creates the closures the parallel regions pass to the worker
// pool. Bound once; they read the current iteration's inputs from the
// machine's cur* fields.
func (m *Machine) bindWorkerFns() {
	//gearbox:steadystate
	m.fnStep2 = func(w, k int) {
		f := m.curF
		long := int64(len(f.Long))
		e := int64(len(f.Local[k]))
		// Owned-column offset lookups walk the shard's offsets array in
		// sorted order, so activations are bounded by the rows the offsets
		// span; long entries index the fragment table individually.
		span := int64(m.plan.Ranges[k].Len())/int64(m.cfg.Geo.WordsPerRow()) + 1
		a := e
		if span < a {
			a = span
		}
		a += long
		i := (e + long) * m.instrCosts.packInstrs
		m.busy[k] = float64(i)*m.cyc + float64(a)*m.stallNs(m.instrCosts.packInstrs)
		c := &m.scr.packPW[w]
		c.instrs += i
		c.acts += a
	}

	m.fnStep3 = m.step3SPUBody

	//gearbox:steadystate
	m.fnMergeLogic = func(w, b, lo, hi int) {
		// Block b owns logic-accumulator slots [lo, hi) of the long region.
		// Scanning the sources in ascending SPU order keeps each slot's
		// float fold order identical to the serial merge.
		c := &m.scr.mergePW[w]
		for k := range m.emit {
			idxs := m.emit[k].logicIdx
			vals := m.emit[k].logicVal
			for i, idx := range idxs {
				if int(idx) < lo || int(idx) >= hi {
					continue
				}
				old := m.logicAcc[idx]
				if m.sem.IsZero(old) {
					c.logicDirty = append(c.logicDirty, idx) //gearbox:alloc-ok recycled per-worker dirty list; grows to its high-water mark
					if m.hypo {
						c.cleanHits++
					}
				}
				m.logicAcc[idx] = m.sem.Add(old, vals[i])
			}
		}
	}

	//gearbox:steadystate
	m.fnMergeHypoShort = func(w, b, lo, hi int) {
		// HypoGearboxV2 routes every short accumulation through the logic
		// layer too; block b owns the output shards of SPUs [lo, hi). Each
		// short index has exactly one owner, so shards are exclusive and the
		// per-owner dirty append order matches the serial merge.
		c := &m.scr.mergePW[w]
		for k := range m.emit {
			idxs := m.emit[k].logicIdx
			vals := m.emit[k].logicVal
			for i, idx := range idxs {
				owner := m.plan.OwnerOf[idx]
				if int(owner) < lo || int(owner) >= hi {
					continue
				}
				old := m.output[idx]
				if m.sem.IsZero(old) {
					m.dirty[owner] = append(m.dirty[owner], idx) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
					c.cleanHits++
				}
				m.output[idx] = m.sem.Add(old, vals[i])
			}
		}
	}

	//gearbox:steadystate
	m.fnReduceRep = func(w, b, lo, hi int) {
		// V3 replica reduction, sharded by logic-accumulator slot: block b
		// owns slots [lo, hi), and runStep6Reduce filed exactly those dirty
		// slots in bucket b, ascending by SPU, so each slot's float fold
		// order is the serial reduction's. Marks are slot-indexed (slot r is
		// touched only by the block owning r, so concurrent blocks write
		// disjoint elements) and distinct-slot counts are worker-private.
		c := &m.scr.mergePW[w]
		counts := m.scr.redPW[w]
		epoch := m.scr.epoch
		for _, key := range m.redBucket[b] {
			k, r := int(key>>32), int32(uint32(key))
			bf := m.bankOf[k]
			old := m.logicAcc[r]
			if m.sem.IsZero(old) {
				c.logicDirty = append(c.logicDirty, r) //gearbox:alloc-ok recycled per-worker dirty list; grows to its high-water mark
			}
			//gearbox:nondet-ok r lies in block b: runStep6Reduce buckets slots by redBlockOf, and block b is claimed by exactly one worker per reduction; cross-checked by the CI -race job
			m.logicAcc[r] = m.sem.Add(old, m.replicas[k][r])
			//gearbox:nondet-ok r lies in block b: same bucket-routing invariant as logicAcc above
			m.replicas[k][r] = m.clean
			if marks := m.scr.bankSlotMark[bf]; marks[r] != epoch {
				//gearbox:nondet-ok r lies in block b: same bucket-routing invariant as logicAcc above
				marks[r] = epoch
				counts[bf]++
			}
		}
	}

	//gearbox:steadystate
	m.fnReduceStage = func() {
		m.runStep6Reduce()
		m.reduceWG.Done()
	}

	//gearbox:steadystate
	m.fnStep5 = func(w, b, lo, hi int) {
		// Block b owns destinations [lo, hi), and every source bucketed its
		// pairs for them into bucket b (dstBlockOf is built from the same
		// geometry). Folding the emitters' buckets in ascending SPU order
		// hands each destination its pairs in (source SPU, emission order):
		// the serial receive order, so fold order, dirty order and float
		// sums match Workers=1.
		c := &m.scr.scatPW[w]
		fold := m.scr.fold
		for d := lo; d < hi; d++ {
			fold[d] = foldTally{lastRow: -1}
		}
		for _, k := range m.emitters {
			keys := m.emit[k].bKey[b]
			vals := m.emit[k].bVal[b]
			for i, key := range keys {
				d, enc := int32(key>>32), int32(uint32(key))
				t := fold[d]
				if enc < 0 {
					// Clean indicator: the row arrives bit-complemented.
					//gearbox:nondet-ok d lies in block b: sources bucket pairs by dstBlockOf, and block b is claimed by exactly one worker per step 5 fold; cross-checked by the CI -race job
					m.dirty[d] = append(m.dirty[d], ^enc) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
					t.instr += m.instrCosts.cleanAppend
				} else {
					t.instr += m.instrCosts.scatterLocal
					c.ev.ALUOps++
					old := m.output[enc]
					if m.sem.IsZero(old) {
						//gearbox:nondet-ok d lies in block b: same bucket-routing invariant as the clean-indicator append above
						m.dirty[d] = append(m.dirty[d], enc) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
						t.instr += m.instrCosts.cleanAppend
						c.cleanHits++
					}
					//gearbox:nondet-ok enc is a short row owned by d, and d lies in block b: same bucket-routing invariant as the clean-indicator append above
					m.output[enc] = m.sem.Add(old, vals[i])
					if row := int64(enc) >> 6; row != t.lastRow {
						t.randActs++
						t.lastRow = row
					}
				}
				//gearbox:nondet-ok d lies in block b: same bucket-routing invariant as the clean-indicator append above
				fold[d] = t
			}
		}
		stall := m.stallNs(m.instrCosts.scatterLocal + m.instrCosts.cleanAppend)
		rowWords := int64(m.cfg.Geo.WordsPerRow())
		for d := lo; d < hi; d++ {
			n := m.scr.recv[d]
			if n == 0 {
				m.busy[d] = 0
				continue
			}
			t := fold[d]
			m.busy[d] = float64(t.instr)*m.cyc + float64(t.randActs)*stall
			c.ev.SPUInstrs += t.instr
			c.ev.RandRowActs += t.randActs
			c.ev.SeqRowActs += 2*n/rowWords + 1
		}
	}

	//gearbox:steadystate
	m.fnApply = func(w, k int) {
		alpha, y := m.curApply.Alpha, m.curApply.Y
		r := m.plan.Ranges[k]
		if r.Len() == 0 {
			m.busy[k] = 0
			return
		}
		// After a dense apply every slot may be non-clean; rebuild the
		// dirty list by scanning (the scan rides the same stream).
		m.dirty[k] = m.dirty[k][:0]
		for v := r.First; v <= r.Last; v++ {
			m.output[v] = m.sem.Add(m.output[v], m.sem.Mul(alpha, y[v]))
			if !m.sem.IsZero(m.output[v]) {
				m.dirty[k] = append(m.dirty[k], v) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
			}
		}
		words := int64(r.Len())
		m.busy[k] = float64(words*m.instrCosts.applyPerWord) * m.cyc
		c := &m.scr.applyPW[w]
		c.SPUInstrs += words * m.instrCosts.applyPerWord
		c.ALUOps += 2 * words
		c.SeqRowActs += 2*words/int64(m.cfg.Geo.WordsPerRow()) + 1
	}

	m.fnEmit = m.step6EmitBody
}
