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
// The simulated SPUs all work at once; the host walks them one after the
// other on the calling goroutine, because simulated time comes from counted
// events, not from host threads. Every float result depends only on fold
// order, and the loops fix it: SPUs and sources are walked in ascending
// order, each SPU's emissions in emission order, so every destination sees
// the same receive and fold sequence on every run. DESIGN.md "Execution
// model" documents the rules.

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
	long := int64(len(f.Long))
	for k := range m.busy {
		e := int64(len(f.Local[k]))
		// Owned-column offset lookups walk the shard's offsets array in
		// sorted order, so activations are bounded by the rows the offsets
		// span; long entries index the fragment table individually.
		span := int64(m.plan.Ranges[k].Len())/int64(m.cfg.Geo.WordsPerRow()) + 1
		a := min(e, span) + long
		i := (e + long) * m.instrCosts.packInstrs
		m.busy[k] = float64(i)*m.cyc + float64(a)*m.stallNs(m.instrCosts.packInstrs)
		s.Events.SPUInstrs += i
		s.Events.RandRowActs += a
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
}

// step3SPU is SPU k's share of step 3: stream the activated columns and
// long-column fragments, multiply, and route each contribution. It touches
// SPU k's own output shard, replica, emit buckets and error stream, counts
// into st and ev, and tallies each dispatched pair in scr.recv. Dispatcher
// pairs and logic-layer contributions wait in m.emit[k] for their folds.
//
//gearbox:steadystate
func (m *Machine) step3SPU(f *Frontier, k int, st *IterStats, ev *Events) {
	e := &m.emit[k]
	recv := m.scr.recv
	var instr, randActs, seqActs int64
	// Per-SPU accumulation counts, also published to the telemetry arrays.
	var locA, remA, lonA int64
	lastRow := int64(-1)
	lastRepRow := int64(-1)
	replicate := m.replicate && m.plan.LastLong >= 0 && !m.hypo

	accumulate := func(r int32, contribution float32) {
		contribution = m.corrupt(k, contribution)
		ev.ALUOps += 2 // ⊗ then ⊕
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
				e.key = append(e.key, uint64(uint32(k))<<32|uint64(uint32(^r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.val = append(e.val, 0)                                        //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
				e.sentPairs++
				recv[k]++
				st.CleanHits++
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
			e.key = append(e.key, uint64(uint32(owner))<<32|uint64(uint32(r))) //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.val = append(e.val, contribution)                                //gearbox:alloc-ok recycled emit bucket; grows to its high-water mark
			e.sentPairs++
			recv[owner]++
			remA++
		}
	}

	for _, fe := range f.Local[k] {
		rows, vals := m.plan.Matrix.Col(fe.Index)
		st.ActivatedColumns++
		n := rows.Len()
		st.ProcessedNNZ += int64(n)
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
		st.ProcessedNNZ += int64(len(es))
		for _, fr := range es {
			accumulate(fr.Row, m.sem.Mul(fr.Val, it.val))
		}
		seqActs += int64(2*len(es))/int64(m.cfg.Geo.WordsPerRow()) + 1
	}

	m.busy[k] = float64(instr)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.macLocal)
	ev.SPUInstrs += instr
	ev.RandRowActs += randActs
	ev.SeqRowActs += seqActs
	st.LocalAccums += locA
	st.RemoteAccums += remA
	st.LongAccums += lonA
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
// the per-SPU worklists step3SPU walks. Only the pieces of activated
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
// Each SPU buffers its dispatcher pairs and logic-layer contributions in
// m.emit[k]. Once every SPU has computed, the logic-layer contributions
// fold into their destinations, sources in ascending SPU order; the
// dispatcher pairs stay in their buckets until step 5 folds them.
//
//gearbox:steadystate
func (m *Machine) step3LocalAccumulations(f *Frontier, st *IterStats) {
	m.net.Reset()

	s := &st.Steps[2]
	s.StallRounds = 1

	scr := &m.scr
	clear(scr.recv)
	var ev Events
	m.buildLongWork(f)
	for k := 0; k < m.plan.NumSPUs; k++ {
		m.step3SPU(f, k, st, &ev)
	}
	recvPerBank := scr.recvPerBank
	clear(recvPerBank)
	for d, n := range scr.recv {
		recvPerBank[m.bankOf[d]] += n
	}

	// Network sends and logic-layer traffic in ascending SPU order, which
	// fixes link occupancy order. The SPUs that sent dispatcher pairs are
	// recorded, ascending, for step 5. Logic-layer contributions (V2 long
	// sends; every HypoGearboxV2 accumulation) fold into their
	// destinations: long ones into the accumulator, short ones into their
	// owners' shards. logicDirty is sorted and deduped in step 6 before
	// anything observable reads it.
	logicPairsPerVault := scr.logicPairsPerVault
	clear(logicPairsPerVault)
	m.emitters = m.emitters[:0]
	for k := 0; k < m.plan.NumSPUs; k++ {
		e := &m.emit[k]
		srcID := m.plan.SPUIDOf(k)
		if e.sentPairs > 0 {
			m.net.SendSPUToSPU(srcID, m.plan.DispatcherOf(k), e.sentPairs)
			m.emitters = append(m.emitters, int32(k)) //gearbox:alloc-ok recycled emitter list; grows to its high-water mark
		}
		if e.logicPairs == 0 {
			continue
		}
		m.net.SendToLogic(srcID, e.logicPairs)
		ev.LogicOps += 2 * e.logicPairs
		logicPairsPerVault[m.cfg.Geo.VaultOf(srcID.Bank)] += e.logicPairs
		for i, idx := range e.logicIdx {
			if idx <= m.plan.LastLong {
				old := m.logicAcc[idx]
				if m.sem.IsZero(old) {
					m.logicDirtyAdd(idx)
					if m.hypo {
						st.CleanHits++
					}
				}
				m.logicAcc[idx] = m.sem.Add(old, e.logicVal[i])
				continue
			}
			// HypoGearboxV2 routes every short accumulation through the
			// logic layer too.
			owner := m.plan.OwnerOf[idx]
			old := m.output[idx]
			if m.sem.IsZero(old) {
				m.dirty[owner] = append(m.dirty[owner], idx) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
				st.CleanHits++
			}
			m.output[idx] = m.sem.Add(old, e.logicVal[i])
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
// read straight out of the step 3 emit buckets, emitters in ascending SPU
// order and each bucket in emission order, so every destination folds its
// pairs in (source SPU, emission order).
//
//gearbox:steadystate
func (m *Machine) step5RemoteAccumulations(st *IterStats) {
	s := &st.Steps[4]
	s.StallRounds = 1
	ev := &s.Events
	fold := m.scr.fold
	for d := range fold {
		fold[d] = foldTally{lastRow: -1}
	}
	for _, k := range m.emitters {
		e := &m.emit[k]
		for i, key := range e.key {
			d, enc := int32(key>>32), int32(uint32(key))
			t := &fold[d]
			if enc < 0 {
				// Clean indicator: the row arrives bit-complemented.
				m.dirty[d] = append(m.dirty[d], ^enc) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
				t.instr += m.instrCosts.cleanAppend
				continue
			}
			t.instr += m.instrCosts.scatterLocal
			ev.ALUOps++
			old := m.output[enc]
			if m.sem.IsZero(old) {
				m.dirty[d] = append(m.dirty[d], enc) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
				t.instr += m.instrCosts.cleanAppend
				st.CleanHits++
			}
			m.output[enc] = m.sem.Add(old, e.val[i])
			if row := int64(enc) >> 6; row != t.lastRow {
				t.randActs++
				t.lastRow = row
			}
		}
	}
	stall := m.stallNs(m.instrCosts.scatterLocal + m.instrCosts.cleanAppend)
	rowWords := int64(m.cfg.Geo.WordsPerRow())
	for d, n := range m.scr.recv {
		if n == 0 {
			m.busy[d] = 0
			continue
		}
		t := fold[d]
		m.busy[d] = float64(t.instr)*m.cyc + float64(t.randActs)*stall
		ev.SPUInstrs += t.instr
		ev.RandRowActs += t.randActs
		ev.SeqRowActs += 2*n/rowWords + 1
	}
	m.busyStats(s)
	s.TimeNs = m.cfg.Tim.LaunchNs + maxOf(m.busy)*m.refreshFactor()
}

// step6Emit is SPU k's frontier emission: sort the dirty list, emit the
// non-clean slots into next's bucket, and reset them to clean. Buckets come
// from a recycled frontier, so steady-state emission reuses the caller's
// returned-and-recycled arrays.
//
//gearbox:steadystate
func (m *Machine) step6Emit(k int, next *Frontier, st *IterStats, ev *Events) {
	dl := m.dirty[k]
	if len(dl) == 0 {
		return
	}
	slices.Sort(dl)
	lastRow, randActs := int64(-1), int64(0)
	entries := next.Local[k][:0]
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
	next.Local[k] = entries
	n := int64(len(entries))
	m.busy[k] += float64(n*m.instrCosts.frontierEmit)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.frontierEmit)
	ev.SPUInstrs += n * m.instrCosts.frontierEmit
	ev.RandRowActs += randActs
	st.FrontierOut += n
}

// step6Apply is SPU k's share of the dense Applying op over its output
// range: output[v] = output[v] ⊕ (alpha ⊗ y[v]).
//
//gearbox:steadystate
func (m *Machine) step6Apply(k int, apply *ApplySpec, ev *Events) {
	r := m.plan.Ranges[k]
	if r.Len() == 0 {
		m.busy[k] = 0
		return
	}
	// After a dense apply every slot may be non-clean; rebuild the dirty
	// list by scanning (the scan rides the same stream).
	m.dirty[k] = m.dirty[k][:0]
	for v := r.First; v <= r.Last; v++ {
		m.output[v] = m.sem.Add(m.output[v], m.sem.Mul(apply.Alpha, apply.Y[v]))
		if !m.sem.IsZero(m.output[v]) {
			m.dirty[k] = append(m.dirty[k], v) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
		}
	}
	words := int64(r.Len())
	m.busy[k] = float64(words*m.instrCosts.applyPerWord) * m.cyc
	ev.SPUInstrs += words * m.instrCosts.applyPerWord
	ev.ALUOps += 2 * words
	ev.SeqRowActs += 2*words/int64(m.cfg.Geo.WordsPerRow()) + 1
}

// step6Reduce is the V3 replica reduction (Fig. 7b). It is hierarchical:
// each SPU sends its dirty replica slots to the bank's Dispatcher over the
// line interconnect, the Dispatcher combines same-slot partials, and only
// the bank-level partials cross the TSVs — without this the replicated
// scheme would push SPUs x slots pairs at the logic layer and lose its
// advantage. SPUs fold in ascending order, so each slot's float sum is
// fixed. The per-bank distinct-slot sets are epoch-stamped flat arrays
// indexed by slot and walked in index order, not maps: map iteration order
// is randomized per run, and the marks recycle across iterations with a
// single epoch bump instead of a clear.
//
//gearbox:steadystate
func (m *Machine) step6Reduce(ev *Events, logicPerVault []float64) {
	scr := &m.scr
	scr.epoch++
	if scr.epoch <= 0 { // int32 wrap: reset marks, restart epochs
		for _, marks := range scr.bankSlotMark {
			clear(marks)
		}
		scr.epoch = 1
	}
	clear(scr.bankSlotCount)
	for k, dl := range m.dirtyLong {
		if len(dl) == 0 {
			continue
		}
		bf := m.bankOf[k]
		marks := scr.bankSlotMark[bf]
		rep := m.replicas[k]
		for _, r := range dl {
			old := m.logicAcc[r]
			if m.sem.IsZero(old) {
				m.logicDirtyAdd(r)
			}
			m.logicAcc[r] = m.sem.Add(old, rep[r])
			rep[r] = m.clean
			if marks[r] != scr.epoch {
				marks[r] = scr.epoch
				scr.bankSlotCount[bf]++
			}
		}
		// Line traffic SPU -> Dispatcher.
		n := int64(len(dl))
		m.net.SendSPUToSPU(m.plan.SPUIDOf(k), m.plan.DispatcherOf(k), n)
		ev.SPUInstrs += n * 2 // read replica slot + send
	}
	pairsPerRow := int64(m.cfg.Geo.WordsPerRow() / 2)
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

// step6Applying reduces the replicated long regions in the logic layer
// (V3), performs the optional Applying op, emits the next frontier from the
// newly non-clean slots, and resets the output vector to clean indicators
// (§5 Step 6). The reduction retires before the apply, which folds into the
// same logic accumulator.
//
//gearbox:steadystate
func (m *Machine) step6Applying(apply *ApplySpec, st *IterStats) *Frontier {
	m.net.Reset()
	s := &st.Steps[5]
	s.StallRounds = 1
	ev := &s.Events
	logicPerVault := m.scr.logicPerVault
	clear(logicPerVault)

	if m.replicate && m.plan.LastLong >= 0 {
		m.step6Reduce(ev, logicPerVault)
	}

	// Optional Applying op over the whole vector, by output range.
	if apply != nil {
		for k := 0; k < m.plan.NumSPUs; k++ {
			m.step6Apply(k, apply, ev)
		}
		for r := int32(0); r <= m.plan.LastLong; r++ {
			m.logicAcc[r] = m.sem.Add(m.logicAcc[r], m.sem.Mul(apply.Alpha, apply.Y[r]))
			if !m.sem.IsZero(m.logicAcc[r]) {
				m.logicDirtyAdd(r)
			}
			ev.LogicOps += 2
		}
	} else {
		clear(m.busy)
	}

	// Emit the next frontier and reset output slots to clean.
	next := m.getFrontier()
	for k := 0; k < m.plan.NumSPUs; k++ {
		m.step6Emit(k, next, st, ev)
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
	return next
}

// bankFlat flattens a bank coordinate for per-bank accounting arrays.
func bankFlat(g mem.Geometry, id mem.SPUID) int32 {
	return int32(id.Layer*g.BanksPerLayer + id.Bank)
}
