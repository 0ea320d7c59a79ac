package gearbox

import (
	"slices"

	"gearbox/internal/mem"
)

// Step implementations. Each step functionally executes its share of the
// algorithm and fills st.Steps[i] with time and events. Times follow the
// DESIGN.md model: per-SPU busy time (instruction slots at the SPU clock plus
// unhidden row activations), network drain for the traffic the step routes,
// logic-layer core time where the step touches the logic layer, and a launch
// overhead per step broadcast (§4: "launch a kernel ... by broadcasting at
// most 8 instructions").
//
// The per-SPU loops of steps 2, 3, 5 and 6 are embarrassingly parallel —
// each subarray pipeline owns a contiguous output shard, its replica and
// its dirty list — so they run on the machine's worker pool. Everything an
// SPU would push into shared state (dispatcher pairs, logic-layer
// contributions, network sends, event counters) is buffered per SPU or per
// worker during the parallel phase and folded after the barrier. The fold
// itself is sharded by *destination* (destination SPU, accumulator slot,
// owner shard): each destination is owned by exactly one worker, which
// scans the per-SPU buffers in ascending SPU order, so every destination
// sees the exact serial receive/fold order and the results stay
// bit-identical to the Workers=1 path. DESIGN.md "Execution model" documents
// the rules. The worker bodies themselves are bound once at New (see
// scratch.go) so the steady-state hot path allocates nothing.

// step1FrontierDistribution broadcasts the long-activating frontier entries
// from the logic layer to all subarrays (§5 Step 1) and, for HypoGearboxV2,
// the whole input vector.
//
//gearbox:steadystate
func (m *Machine) step1FrontierDistribution(f *Frontier, st *IterStats) {
	m.resetScratch()
	m.net.Reset()

	words := int64(2 * len(f.Long))
	if m.hypo {
		words = int64(2 * f.NNZ())
	}
	m.net.BroadcastFromLogic(words)

	s := &st.Steps[0]
	s.StallRounds = 1
	s.TimeNs = m.cfg.Tim.LaunchNs + m.net.DrainNs() + float64(words)*m.cfg.Tim.LogicSRAMNs
	s.Events.BroadcastWords = words
	s.Events.LogicOps = words
	s.Events.NetHopWords = m.net.HopWords()
	s.Events.TSVWords = m.net.TSVWords()
}

// step2OffsetPacking packs (column offset, length, frontier value) triples
// per frontier entry (Fig. 10).
//
//gearbox:steadystate
func (m *Machine) step2OffsetPacking(f *Frontier, st *IterStats) {
	s := &st.Steps[1]
	s.StallRounds = 1
	for i := range m.scr.packPW {
		m.scr.packPW[i] = packCounters{}
	}
	m.pool.ForEach("step2-pack", m.plan.NumSPUs, m.fnStep2)
	var instrs, acts int64
	for _, c := range m.scr.packPW {
		instrs += c.instrs
		acts += c.acts
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
	s.Events.SPUInstrs = instrs
	s.Events.RandRowActs = acts
}

// step3Counters is the per-worker slice of IterStats/Events fields the
// parallel phase of step 3 accumulates; they reduce after the barrier.
// recv[d] counts the dispatcher pairs the worker's SPUs sent to destination
// SPU d.
type step3Counters struct {
	ev                             Events
	localAccums, remoteAccums      int64
	longAccums, cleanHits          int64
	activatedColumns, processedNNZ int64
	recv                           []int64
}

// step3SPUBody is SPU k's share of step 3, run on worker w: stream the
// activated columns and long-column fragments, multiply, and route each
// contribution. Shard-private compute only — SPU k touches its own output
// shard, replica, emit buckets and error stream, plus worker w's counters;
// shared-state effects are deferred to the ordered folds.
//
//gearbox:steadystate
func (m *Machine) step3SPUBody(w, k int) {
	f := m.curF
	c := &m.scr.s3PW[w]
	e := &m.emit[k]
	var instr, randActs, seqActs int64
	// Per-SPU accumulation counts: folded into the per-worker counters after
	// the loop, and published to the telemetry arrays (SPU k is visited by
	// exactly one worker per iteration, so plain stores race-free).
	var locA, remA, lonA int64
	lastRow := int64(-1)
	lastRepRow := int64(-1)
	replicate := m.replicate && m.plan.LastLong >= 0 && !m.hypo

	accumulate := func(r int32, contribution float32) {
		contribution = m.corrupt(k, contribution)
		c.ev.ALUOps += 2 // ⊗ then ⊕
		owner := m.plan.OwnerOf[r]
		switch {
		case m.hypo:
			// Everything accumulates in the logic layer's SRAM; the
			// read-modify-write itself happens in the ordered merge.
			instr += m.instrCosts.macRemote
			e.logicPairs++
			e.logicIdx = append(e.logicIdx, r)            //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.logicVal = append(e.logicVal, contribution) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			locA++
		case owner == int32(k):
			instr += m.instrCosts.macLocal
			old := m.output[r]
			if m.sem.IsZero(old) {
				// Fig. 11: the clean indicator pair takes the dispatcher
				// round trip inside the bank. enc = ^r marks it clean.
				b := m.dstBlockOf[k]
				e.bKey[b] = append(e.bKey[b], uint64(uint32(k))<<32|uint64(uint32(^r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.bVal[b] = append(e.bVal[b], 0)                                        //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.sentPairs++
				c.recv[k]++
				c.cleanHits++
			}
			m.output[r] = m.sem.Add(old, contribution)
			locA++
			if row := int64(r) >> 6; row != lastRow {
				randActs++
				lastRow = row
			}
		case r <= m.plan.LastLong:
			lonA++
			if replicate {
				rep := m.replica(k)
				instr += m.instrCosts.macLocal
				old := rep[r]
				if m.sem.IsZero(old) {
					m.dirtyLong[k] = append(m.dirtyLong[k], r) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
				}
				rep[r] = m.sem.Add(old, contribution)
				if row := int64(r) >> 6; row != lastRepRow {
					randActs++
					lastRepRow = row
				}
			} else {
				// V2: send the contribution down to the logic layer.
				instr += m.instrCosts.macRemote
				e.logicPairs++
				e.logicIdx = append(e.logicIdx, r)            //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.logicVal = append(e.logicVal, contribution) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			}
		default:
			// Remote accumulation: dispatch toward the owner's bank.
			instr += m.instrCosts.macRemote
			b := m.dstBlockOf[owner]
			e.bKey[b] = append(e.bKey[b], uint64(uint32(owner))<<32|uint64(uint32(r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.bVal[b] = append(e.bVal[b], contribution)                                //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.sentPairs++
			c.recv[owner]++
			remA++
		}
	}

	for _, fe := range f.Local[k] {
		rows, vals := m.plan.Matrix.Col(fe.Index)
		c.activatedColumns++
		n := rows.Len()
		c.processedNNZ += int64(n)
		// One width branch per column, not per entry: the two loops are
		// the 16- and 32-bit specializations of the same stream.
		if wide := rows.Wide(); wide != nil {
			for i, r := range wide {
				accumulate(r, m.sem.Mul(vals[i], fe.Value))
			}
		} else {
			for i, r := range rows.Narrow() {
				accumulate(int32(r), m.sem.Mul(vals[i], fe.Value))
			}
		}
		seqActs += int64(2*n)/int64(m.cfg.Geo.WordsPerRow()) + 1
	}
	// Long activations: each item is one piece's fragment then spill, in
	// frontier order (buildLongWork), so the fold order is the per-column
	// walk's.
	for _, it := range m.longWork[k] {
		es := m.plan.LongEntries[it.lo:it.hi]
		c.processedNNZ += int64(len(es))
		for _, fr := range es {
			accumulate(fr.Row, m.sem.Mul(fr.Val, it.val))
		}
		seqActs += int64(2*len(es))/int64(m.cfg.Geo.WordsPerRow()) + 1
	}

	m.busy[k] = float64(instr)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.macLocal)
	c.ev.SPUInstrs += instr
	c.ev.RandRowActs += randActs
	c.ev.SeqRowActs += seqActs
	c.localAccums += locA
	c.remoteAccums += remA
	c.longAccums += lonA
	if m.tel != nil {
		m.telLocal[k] = locA
		m.telRemote[k] = remA
		m.telLng[k] = lonA
	}
}

// longItem is one entry of an SPU's step 3 worklist: the piece
// LongEntries[lo:hi] (fragment then spill) scaled by the activating
// frontier value.
type longItem struct {
	lo, hi int32
	val    float32
}

// buildLongWork turns the frontier's long part, in its given order, into
// the per-SPU worklists step3SPUBody walks. Only the pieces of activated
// columns are visited, so the cost is O(activated pieces), not
// O(|f.Long| x NumSPUs). Duplicate and unsorted activations keep their
// order, so each SPU folds exactly the sequence the per-column walk did. An
// index outside the long region activates nothing.
//
//gearbox:steadystate
func (m *Machine) buildLongWork(f *Frontier) {
	for _, fe := range f.Long {
		if fe.Index < 0 || fe.Index > m.plan.LastLong {
			continue
		}
		for _, pc := range m.plan.LongPiecesOf(fe.Index) {
			m.longWork[pc.SPU] = append(m.longWork[pc.SPU], longItem{lo: pc.Lo, hi: pc.Hi, val: fe.Value}) //gearbox:alloc-ok recycled worklist; grows to its high-water mark
		}
	}
}

// step3LocalAccumulations is the heart of the algorithm (Fig. 11): every SPU
// streams its activated columns and long-column fragments, multiplies, and
// either accumulates locally, reduces into its replica of the long region,
// sends the contribution toward the logic layer, or dispatches it as a
// remote accumulation.
//
// The per-SPU loops run on the worker pool; each SPU buffers its dispatcher
// pairs and logic-layer contributions in m.emit[k]. After the barrier the
// logic-layer contributions fold sharded by accumulator slot (and, for
// HypoGearboxV2, by owner shard); the dispatcher pairs stay in their
// buckets until step 5 folds them.
//
//gearbox:steadystate
func (m *Machine) step3LocalAccumulations(f *Frontier, st *IterStats) {
	m.net.Reset()

	s := &st.Steps[2]
	s.StallRounds = 1

	scr := &m.scr
	for i := range scr.s3PW {
		c := &scr.s3PW[i]
		recv := c.recv
		clear(recv)
		*c = step3Counters{recv: recv}
	}
	for i := range scr.mergePW {
		c := &scr.mergePW[i]
		c.cleanHits = 0
		c.logicDirty = c.logicDirty[:0]
	}

	m.buildLongWork(f)
	m.pool.ForEach("step3-compute", m.plan.NumSPUs, m.fnStep3)

	var ev Events
	recv := scr.recv
	clear(recv)
	for i := range scr.s3PW {
		c := &scr.s3PW[i]
		ev.Add(c.ev)
		st.LocalAccums += c.localAccums
		st.RemoteAccums += c.remoteAccums
		st.LongAccums += c.longAccums
		st.CleanHits += c.cleanHits
		st.ActivatedColumns += c.activatedColumns
		st.ProcessedNNZ += c.processedNNZ
		for d, n := range c.recv {
			recv[d] += n
		}
	}
	recvPerBank := scr.recvPerBank
	clear(recvPerBank)
	for d, n := range recv {
		recvPerBank[m.bankOf[d]] += n
	}

	// Serial tail: network sends and logic-layer traffic fold in ascending
	// SPU order, keeping link occupancy order worker-independent. The SPUs
	// that sent dispatcher pairs are recorded, ascending, for step 5.
	logicPairsPerVault := scr.logicPairsPerVault
	for i := range logicPairsPerVault {
		logicPairsPerVault[i] = 0
	}
	m.emitters = m.emitters[:0]
	var logicPairs int64
	for k := 0; k < m.plan.NumSPUs; k++ {
		e := &m.emit[k]
		srcID := m.plan.SPUIDOf(k)
		if e.sentPairs > 0 {
			m.net.SendSPUToSPU(srcID, m.plan.DispatcherOf(k), e.sentPairs)
			m.emitters = append(m.emitters, int32(k)) //gearbox:alloc-ok recycled emitter list; grows to its high-water mark
		}
		if e.logicPairs > 0 {
			m.net.SendToLogic(srcID, e.logicPairs)
			ev.LogicOps += 2 * e.logicPairs
			logicPairsPerVault[m.cfg.Geo.VaultOf(srcID.Bank)] += e.logicPairs
			logicPairs += e.logicPairs
		}
	}

	// Logic-layer contributions (V2 long sends; every HypoGearboxV2
	// accumulation) fold into their destinations: short accumulations into
	// owner shards, long ones into the accumulator. Each destination belongs
	// to exactly one block and every block scans the sources in
	// ascending SPU order, so per-destination fold order is the serial one.
	// Worker-private clean hits and newly-dirty slots reduce after the
	// join; step 6 sorts and dedups the dirty slots before anything
	// observable reads them.
	if logicPairs > 0 {
		if m.hypo {
			m.pool.ForEachBlock("step3-merge-short", m.plan.NumSPUs, m.dstBlocks, m.fnMergeHypoShort)
		}
		m.pool.ForEachBlock("step3-merge-logic", int(m.plan.LastLong)+1, m.slotBlocks, m.fnMergeLogic)
		for i := range scr.mergePW {
			c := &scr.mergePW[i]
			st.CleanHits += c.cleanHits
			m.logicDirty = append(m.logicDirty, c.logicDirty...) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
			// Truncate so the step 6 replica reduction can reuse the buffers.
			c.logicDirty = c.logicDirty[:0]
		}
	}

	// Counted while routing: each long activation processed one fragment set.
	st.ActivatedColumns += int64(len(f.Long))

	// Receiving dispatchers buffer pairs concurrently with compute, one
	// Walker row (WordsPerRow/2 pairs) at a time.
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	dispBusy := 0.0
	var dispInstrs int64
	for _, n := range recvPerBank {
		rows := (n + pairsPerRow - 1) / pairsPerRow
		dispInstrs += rows * m.instrCosts.dispatchPerRow
		if b := float64(rows*m.instrCosts.dispatchPerRow)*m.cyc + float64(rows)*m.cfg.Tim.RowCycleNs; b > dispBusy {
			dispBusy = b
		}
		ev.SeqRowActs += rows
	}
	ev.DispatchInstrs += dispInstrs

	m.busyStats(s)
	logicBusy := 0.0
	for _, n := range logicPairsPerVault {
		if b := float64(n) * m.instrCosts.logicOpNsPerPair; b > logicBusy {
			logicBusy = b
		}
	}
	busy := maxOf(m.busy)
	t := busy
	if dispBusy > t {
		t = dispBusy
	}
	if logicBusy > t {
		t = logicBusy
	}
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()

	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor()
	s.Events = ev
}

// step4Dispatching forwards the buffered pairs from each bank's Dispatcher
// to the destination Compute SPUs over the line interconnect (§5 Step 4),
// honouring the §6 buffer-overflow stall protocol.
//
//gearbox:steadystate
func (m *Machine) step4Dispatching(st *IterStats) {
	m.net.Reset()
	s := &st.Steps[3]
	s.StallRounds = 1

	var ev Events
	for k, n := range m.scr.recv {
		if n == 0 {
			continue
		}
		m.net.SendSPUToSPU(m.plan.DispatcherOf(k), m.plan.SPUIDOf(k), n)
	}
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	dispBusy := 0.0
	rounds := 1
	for _, n := range m.scr.recvPerBank {
		rows := (n + pairsPerRow - 1) / pairsPerRow
		ev.DispatchInstrs += rows * m.instrCosts.dispatchPerRow
		ev.SeqRowActs += rows
		if b := float64(rows*m.instrCosts.dispatchPerRow)*m.cyc + float64(rows)*m.cfg.Tim.RowCycleNs; b > dispBusy {
			dispBusy = b
		}
		if r := int((n + int64(m.cfg.DispatchBufferPairs) - 1) / int64(m.cfg.DispatchBufferPairs)); r > rounds {
			rounds = r
		}
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()

	t := dispBusy
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	s.StallRounds = rounds
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor() + float64(rounds-1)*2*m.cfg.Tim.LaunchNs
	s.Events = ev
}

// step5RemoteAccumulations has every Compute SPU fold the received pairs
// into its output shard with the ScatterAccumulate kernel, appending
// clean-indicator indexes to the frontier list (§5 Step 5). The pairs are
// read straight out of the step 3 emit buckets: each destination block
// folds its bucket of every emitting SPU (fnStep5), touching only its
// destinations' shards and dirty lists.
//
//gearbox:steadystate
func (m *Machine) step5RemoteAccumulations(st *IterStats) {
	s := &st.Steps[4]
	s.StallRounds = 1
	for i := range m.scr.scatPW {
		m.scr.scatPW[i] = scatCounters{}
	}
	m.pool.ForEachBlock("step5-fold", m.plan.NumSPUs, m.dstBlocks, m.fnStep5)
	var ev Events
	for i := range m.scr.scatPW {
		ev.Add(m.scr.scatPW[i].ev)
		st.CleanHits += m.scr.scatPW[i].cleanHits
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
	s.Events = ev
}

// step6EmitBody is SPU k's frontier emission, run on worker w: sort the
// dirty list, emit the non-clean slots into the next frontier's bucket, and
// reset them to clean. Buckets come from the recycled frontier in m.curNext,
// so steady-state emission reuses the caller's returned-and-recycled arrays.
//
//gearbox:steadystate
func (m *Machine) step6EmitBody(w, k int) {
	dl := m.dirty[k]
	if len(dl) == 0 {
		return
	}
	c := &m.scr.emitPW[w]
	slices.Sort(dl)
	lastRow, randActs := int64(-1), int64(0)
	entries := m.curNext.Local[k][:0]
	for i, idx := range dl {
		if i > 0 && dl[i-1] == idx {
			continue // clean-pair + apply rebuild may duplicate
		}
		v := m.output[idx]
		if m.sem.IsZero(v) {
			continue // accumulated back to the clean value
		}
		entries = append(entries, FrontierEntry{Index: idx, Value: v}) //gearbox:alloc-ok recycled frontier bucket; grows to its high-water mark
		m.output[idx] = m.clean
		if row := int64(idx) >> 6; row != lastRow {
			randActs++
			lastRow = row
		}
	}
	m.curNext.Local[k] = entries
	n := int64(len(entries))
	m.busy[k] += float64(n*m.instrCosts.frontierEmit)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.frontierEmit)
	c.ev.SPUInstrs += n * m.instrCosts.frontierEmit
	c.ev.RandRowActs += randActs
	c.frontierOut += n
}

// runStep6Reduce is the V3 replica reduction sharded by logic-accumulator
// slot: one serial pass files every SPU's dirty replica slots, SPUs in
// ascending order, into the bucket of the block that owns the slot;
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
	m.pool.ForEachBlock("step6-reduce", int(m.plan.LastLong)+1, m.slotBlocks, m.fnReduceRep)
}

// step6ReduceTail is the serial fold after the parallel V3 replica
// reduction: network sends in ascending SPU then ascending bank order
// (identical to the serial reduction's send sequence), the per-worker
// newly-dirty logic slots into m.logicDirty, and the per-worker distinct-
// slot counts into the per-bank totals that drive the Dispatcher/TSV
// traffic.
//
//gearbox:steadystate
func (m *Machine) step6ReduceTail(ev *Events, logicPerVault []float64) {
	scr := &m.scr
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
	for k := 0; k < m.plan.NumSPUs; k++ {
		n := int64(len(m.dirtyLong[k]))
		if n == 0 {
			continue
		}
		// Line traffic SPU -> Dispatcher.
		m.net.SendSPUToSPU(m.plan.SPUIDOf(k), m.plan.DispatcherOf(k), n)
		ev.SPUInstrs += n * 2 // read replica slot + send
	}
	for i := range scr.mergePW {
		c := &scr.mergePW[i]
		m.logicDirty = append(m.logicDirty, c.logicDirty...) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
		c.logicDirty = c.logicDirty[:0]
	}
	for _, counts := range scr.redPW {
		for bf, n := range counts {
			scr.bankSlotCount[bf] += n
		}
	}
	for bf, n := range scr.bankSlotCount {
		if n == 0 {
			continue
		}
		id := mem.SPUID{Layer: bf / m.cfg.Geo.BanksPerLayer, Bank: bf % m.cfg.Geo.BanksPerLayer, SPU: m.cfg.Geo.SPUsPerBank() - 1}
		m.net.SendToLogic(id, n)
		rows := (n + pairsPerRow - 1) / pairsPerRow
		ev.DispatchInstrs += rows * m.instrCosts.dispatchPerRow
		logicPerVault[m.cfg.Geo.VaultOf(id.Bank)] += float64(n) * m.instrCosts.logicOpNsPerPair
		ev.LogicOps += 2 * n
	}
}

// step6Applying performs the optional Applying op, reduces the replicated
// long regions in the logic layer (V3), emits the next frontier from the
// newly non-clean slots, and resets the output vector to clean indicators
// (§5 Step 6). The dense apply and the frontier emission shard across the
// worker pool (each SPU owns its output range and dirty list); the V3
// replica reduction shards by logic-accumulator slot (runStep6Reduce), each
// slot folding SPUs in ascending order so its float sums stay bit-stable,
// and — when no dense apply is pending — overlaps the frontier emission,
// whose state (short output shards, dirty lists, frontier buckets) is
// disjoint from the long region the reduction touches.
//
//gearbox:steadystate
func (m *Machine) step6Applying(opts IterateOptions, st *IterStats) *Frontier {
	m.net.Reset()
	s := &st.Steps[5]
	s.StallRounds = 1
	var ev Events
	scr := &m.scr
	logicPerVault := scr.logicPerVault
	for i := range logicPerVault {
		logicPerVault[i] = 0
	}

	// V3: reduce per-SPU replicas into the logic layer (Fig. 7b). The
	// reduction is hierarchical: each SPU sends its dirty replica slots to
	// the bank's Dispatcher over the line interconnect, the Dispatcher
	// combines same-slot partials, and only the bank-level partials cross
	// the TSVs — without this the replicated scheme would push
	// SPUs x slots pairs at the logic layer and lose its advantage.
	// The per-bank distinct-slot sets are epoch-stamped flat arrays indexed
	// by slot and walked in index order, not maps: map iteration order is
	// randomized per run, and the marks recycle across iterations with a
	// single epoch bump instead of a clear.
	reduce := m.replicate && m.plan.LastLong >= 0
	if reduce {
		scr.epoch++
		if scr.epoch <= 0 { // int32 wrap: reset marks, restart epochs
			for _, marks := range scr.bankSlotMark {
				for i := range marks {
					marks[i] = 0
				}
			}
			scr.epoch = 1
		}
		for i := range scr.bankSlotCount {
			scr.bankSlotCount[i] = 0
		}
		for _, counts := range scr.redPW {
			for i := range counts {
				counts[i] = 0
			}
		}
	}
	// With no dense apply pending the reduction can overlap the frontier
	// emission below (disjoint state); with an apply it must retire first,
	// because the apply folds into the same logic accumulator.
	overlap := reduce && opts.Apply == nil && m.pool.Workers() > 1
	if reduce && !overlap {
		m.runStep6Reduce()
		m.step6ReduceTail(&ev, logicPerVault)
	}

	// Optional Applying op over the whole vector, sharded by output range.
	if opts.Apply != nil {
		alpha, y := opts.Apply.Alpha, opts.Apply.Y
		for i := range scr.applyPW {
			scr.applyPW[i] = Events{}
		}
		m.pool.ForEach("step6-apply", m.plan.NumSPUs, m.fnApply)
		for i := range scr.applyPW {
			ev.Add(scr.applyPW[i])
		}
		for r := int32(0); r <= m.plan.LastLong; r++ {
			m.logicAcc[r] = m.sem.Add(m.logicAcc[r], m.sem.Mul(alpha, y[r]))
			if !m.sem.IsZero(m.logicAcc[r]) {
				m.logicDirtyAdd(r)
			}
			ev.LogicOps += 2
		}
	} else {
		for k := range m.busy {
			m.busy[k] = 0
		}
	}

	// Emit the next frontier and reset output slots to clean. Each SPU
	// sorts its own dirty list and writes its own frontier bucket; in the
	// overlapped path the V3 replica reduction runs concurrently on its own
	// stage goroutine.
	m.curNext = m.getFrontier()
	next := m.curNext
	for i := range scr.emitPW {
		scr.emitPW[i] = emitCounters{}
	}
	if overlap {
		m.reduceWG.Add(1)
		go m.fnReduceStage() //gearbox:alloc-ok one reduce-stage goroutine spawn per iteration; bounded, not per-entry
	}
	m.pool.ForEach("step6-emit", m.plan.NumSPUs, m.fnEmit)
	if overlap {
		m.reduceWG.Wait()
		m.step6ReduceTail(&ev, logicPerVault)
	}
	for i := range scr.emitPW {
		ev.Add(scr.emitPW[i].ev)
		st.FrontierOut += scr.emitPW[i].frontierOut
	}
	// Long outputs become next-iteration logic-layer frontier entries.
	if len(m.logicDirty) > 0 {
		slices.Sort(m.logicDirty)
		for i, r := range m.logicDirty {
			if i > 0 && m.logicDirty[i-1] == r {
				continue
			}
			v := m.logicAcc[r]
			if m.sem.IsZero(v) {
				continue
			}
			next.Long = append(next.Long, FrontierEntry{Index: r, Value: v}) //gearbox:alloc-ok recycled frontier buffer; grows to its high-water mark
			m.logicAcc[r] = m.clean
			ev.LogicOps += 2
		}
		st.FrontierOut += int64(len(next.Long))
		m.logicDirty = m.logicDirty[:0]
	}

	t := maxOf(m.busy)
	if lb := maxOf(logicPerVault); lb > t {
		t = lb
	}
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refreshFactor()
	s.Events = ev
	return next
}

// bankFlat flattens a bank coordinate for per-bank accounting arrays.
func bankFlat(g mem.Geometry, id mem.SPUID) int32 {
	return int32(id.Layer*g.BanksPerLayer + id.Bank)
}
