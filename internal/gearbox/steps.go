package gearbox

import (
	"math/bits"
	"slices"

	"gearbox/internal/mem"
	"gearbox/internal/sparse"
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
// long-column fragments, multiply, route each contribution, then issue the
// SPU's network sends. It touches SPU k's own output shard, replica and
// error stream, counts into st and ev, tallies each dispatched pair in
// scr.recv, and appends its dispatcher pairs and logic-layer contributions
// to the machine-wide streams (dispKey/dispVal, logicIdx/logicVal). SPUs
// run in ascending order, so both streams come out in (ascending source
// SPU, emission order) and the sends keep that order on the links.
//
// The per-entry routing is written once, inline: every activated column
// and long piece is one stream of (row, matrix value) pairs, read from the
// 32- or 16-bit index array or from LongEntries.
//
//gearbox:steadystate
func (m *Machine) step3SPU(f *Frontier, k int, st *IterStats, ev *Events) {
	cols, items := f.Local[k], m.longWork[k]
	if len(cols) == 0 && len(items) == 0 {
		// Idle this iteration, as most SPUs are on a sparse frontier.
		m.busy[k] = 0
		if m.tel != nil {
			m.telLocal[k], m.telRemote[k], m.telLng[k] = 0, 0, 0
		}
		return
	}
	k32 := int32(k)
	owners, out, recv := m.plan.OwnerOf, m.output, m.scr.recv
	lastLong, hypo := m.plan.LastLong, m.hypo
	replicate := m.replicate && lastLong >= 0 && !hypo
	inject := m.cfg.BitErrorRate > 0
	macLocal, macRemote := m.instrCosts.macLocal, m.instrCosts.macRemote
	rowWords := int64(m.cfg.Geo.WordsPerRow())
	dk, dv := m.dispKey, m.dispVal
	li, lv := m.logicIdx, m.logicVal
	var rep []float32 // SPU k's replica, fetched on first use
	var instr, randActs, seqActs, nnz, cleanHits, sent, logic int64
	// Per-SPU accumulation counts, also published to the telemetry arrays.
	var locA, remA, lonA int64
	lastRow, lastRepRow := int64(-1), int64(-1)

	for j := 0; j < len(cols)+len(items); j++ {
		// Long items follow the columns, each one piece's fragment then
		// spill in frontier order (buildLongWork), so the fold order is the
		// per-column walk's.
		var wide []int32
		var narrow []uint16
		var vals []float32
		var les []sparse.Entry
		var x float32
		var n int
		if j < len(cols) {
			fe := cols[j]
			rows, v := m.plan.Matrix.Col(fe.Index)
			wide, narrow, vals, x, n = rows.Wide(), rows.Narrow(), v, fe.Value, rows.Len()
			st.ActivatedColumns++
		} else {
			it := items[j-len(cols)]
			les, x = m.plan.LongEntries[it.lo:it.hi], it.val
			n = len(les)
		}
		nnz += int64(n)
		seqActs += int64(2*n)/rowWords + 1
		for i := 0; i < n; i++ {
			var r int32
			var a float32
			switch {
			case wide != nil:
				r, a = wide[i], vals[i]
			case narrow != nil:
				r, a = int32(narrow[i]), vals[i]
			default:
				r, a = les[i].Row, les[i].Val
			}
			c := m.mul(a, x)
			if inject {
				c = m.corrupt(k, c)
			}
			owner := owners[r]
			switch {
			case hypo:
				// Everything accumulates in the logic layer's SRAM; the
				// read-modify-write itself happens in the ordered fold.
				instr += macRemote
				li = append(li, r) //gearbox:alloc-ok recycled logic stream; grows to its high-water mark
				lv = append(lv, c) //gearbox:alloc-ok recycled logic stream; grows to its high-water mark
				logic++
				locA++
			case owner == k32:
				instr += macLocal
				old := out[r]
				if m.isZero(old) {
					// Fig. 11: the clean indicator pair takes the dispatcher
					// round trip inside the bank. enc = ^r marks it clean.
					dk = append(dk, uint64(uint32(k32))<<32|uint64(uint32(^r))) //gearbox:alloc-ok recycled dispatcher stream; grows to its high-water mark
					dv = append(dv, 0)                                          //gearbox:alloc-ok recycled dispatcher stream; grows to its high-water mark
					sent++
					recv[k]++
					cleanHits++
				}
				out[r] = m.add(old, c)
				locA++
				if row := int64(r) >> 6; row != lastRow {
					randActs++
					lastRow = row
				}
			case r <= lastLong:
				lonA++
				if replicate {
					if rep == nil {
						rep = m.replica(k)
					}
					instr += macLocal
					old := rep[r]
					if m.isZero(old) {
						m.dirtyLong[k] = append(m.dirtyLong[k], r) //gearbox:alloc-ok recycled dirty list; grows to its high-water mark
					}
					rep[r] = m.add(old, c)
					if row := int64(r) >> 6; row != lastRepRow {
						randActs++
						lastRepRow = row
					}
				} else {
					// V2: send the contribution down to the logic layer.
					instr += macRemote
					li = append(li, r) //gearbox:alloc-ok recycled logic stream; grows to its high-water mark
					lv = append(lv, c) //gearbox:alloc-ok recycled logic stream; grows to its high-water mark
					logic++
				}
			default:
				// Remote accumulation: dispatch toward the owner's bank.
				instr += macRemote
				dk = append(dk, uint64(uint32(owner))<<32|uint64(uint32(r))) //gearbox:alloc-ok recycled dispatcher stream; grows to its high-water mark
				dv = append(dv, c)                                           //gearbox:alloc-ok recycled dispatcher stream; grows to its high-water mark
				sent++
				recv[owner]++
				remA++
			}
		}
	}
	m.dispKey, m.dispVal = dk, dv
	m.logicIdx, m.logicVal = li, lv

	m.busy[k] = float64(instr)*m.cyc + float64(randActs)*m.stallNs(macLocal)
	ev.SPUInstrs += instr
	ev.RandRowActs += randActs
	ev.SeqRowActs += seqActs
	ev.ALUOps += 2 * nnz // ⊗ then ⊕ per entry
	st.ProcessedNNZ += nnz
	st.CleanHits += cleanHits
	st.LocalAccums += locA
	st.RemoteAccums += remA
	st.LongAccums += lonA
	if m.tel != nil {
		m.telLocal[k] = locA
		m.telRemote[k] = remA
		m.telLng[k] = lonA
	}

	if sent == 0 && logic == 0 {
		return
	}
	srcID := m.plan.SPUIDOf(k)
	if sent > 0 {
		m.net.SendSPUToSPU(srcID, m.plan.DispatcherOf(k), sent)
	}
	if logic > 0 {
		m.net.SendToLogic(srcID, logic)
		ev.LogicOps += 2 * logic
		m.scr.logicPairsPerVault[m.cfg.Geo.VaultOf(srcID.Bank)] += logic
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
// SPUs compute in ascending order, each issuing its own network sends. Once
// every SPU has computed, the flat logic-layer stream folds into its
// destinations; the dispatcher stream waits for step 5.
//
//gearbox:steadystate
func (m *Machine) step3LocalAccumulations(f *Frontier, st *IterStats) {
	m.net.Reset()

	s := &st.Steps[2]
	s.StallRounds = 1

	scr := &m.scr
	clear(scr.recv)
	logicPairsPerVault := scr.logicPairsPerVault
	clear(logicPairsPerVault)
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

	// Logic-layer contributions (V2 long sends; every HypoGearboxV2
	// accumulation) fold into their destinations in stream order: long ones
	// into the accumulator, short ones into their owners' shards.
	// logicDirty is sorted and deduped in step 6 before anything observable
	// reads it.
	for i, idx := range m.logicIdx {
		if idx <= m.plan.LastLong {
			old := m.logicAcc[idx]
			if m.isZero(old) {
				m.logicDirtyAdd(idx)
				if m.hypo {
					st.CleanHits++
				}
			}
			m.logicAcc[idx] = m.add(old, m.logicVal[i])
			continue
		}
		// HypoGearboxV2 routes every short accumulation through the logic
		// layer too.
		old := m.output[idx]
		if m.isZero(old) {
			m.markDirty(idx)
			st.CleanHits++
		}
		m.output[idx] = m.add(old, m.logicVal[i])
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
// into its output shard with the ScatterAccumulate kernel, marking
// clean-indicator indexes for the frontier (§5 Step 5). One walk of step
// 3's dispatcher stream, which is in (ascending source SPU, emission
// order), gives every destination its pairs in that order.
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
	out, vals := m.output, m.dispVal
	scatter, cleanAppend := m.instrCosts.scatterLocal, m.instrCosts.cleanAppend
	var aluOps, cleanHits int64
	for i, key := range m.dispKey {
		d, enc := int32(key>>32), int32(uint32(key))
		t := &fold[d]
		if enc < 0 {
			// Clean indicator: the row arrives bit-complemented.
			m.markDirty(^enc)
			t.instr += cleanAppend
			continue
		}
		t.instr += scatter
		aluOps++
		old := out[enc]
		if m.isZero(old) {
			m.markDirty(enc)
			t.instr += cleanAppend
			cleanHits++
		}
		out[enc] = m.add(old, vals[i])
		if row := int64(enc) >> 6; row != t.lastRow {
			t.randActs++
			t.lastRow = row
		}
	}
	ev.ALUOps += aluOps
	st.CleanHits += cleanHits
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

// step6Emit is the frontier emission: one ascending walk of the dirty
// bitmap emits every non-clean slot into its owner's bucket of next, resets
// it to clean, and clears the bitmap as it goes. The ranges tile the short
// region contiguously in ascending SPU order, so the walk switches SPU at
// Ranges[k].Last and each bucket comes out sorted and deduped. Buckets come
// from a recycled frontier, so steady-state emission reuses the caller's
// returned-and-recycled arrays.
//
//gearbox:steadystate
func (m *Machine) step6Emit(next *Frontier, st *IterStats, ev *Events) {
	ranges, dirty, out := m.plan.Ranges, m.dirtyBits, m.output
	k := -1
	var entries []FrontierEntry
	var lastRow, randActs int64
	for w := int(m.plan.LastLong+1) >> 6; w < len(dirty); w++ {
		word := dirty[w]
		if word == 0 {
			continue
		}
		dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			idx := int32(w<<6 | bits.TrailingZeros64(word))
			v := out[idx]
			if m.isZero(v) {
				continue // accumulated back to the clean value
			}
			if k < 0 || idx > ranges[k].Last {
				m.emitDone(k, next, entries, randActs, st, ev)
				for k++; idx > ranges[k].Last; k++ {
				}
				entries, lastRow, randActs = next.Local[k][:0], -1, 0
			}
			entries = append(entries, FrontierEntry{Index: idx, Value: v}) //gearbox:alloc-ok recycled frontier bucket; grows to its high-water mark
			out[idx] = m.clean
			if row := int64(idx) >> 6; row != lastRow {
				randActs++
				lastRow = row
			}
		}
	}
	m.emitDone(k, next, entries, randActs, st, ev)
}

// emitDone hands SPU k its emitted entries and charges the emission; k < 0
// (nothing emitted yet) is a no-op.
//
//gearbox:steadystate
func (m *Machine) emitDone(k int, next *Frontier, entries []FrontierEntry, randActs int64, st *IterStats, ev *Events) {
	if k < 0 {
		return
	}
	next.Local[k] = entries
	n := int64(len(entries))
	m.busy[k] += float64(n*m.instrCosts.frontierEmit)*m.cyc + float64(randActs)*m.stallNs(m.instrCosts.frontierEmit)
	ev.SPUInstrs += n * m.instrCosts.frontierEmit
	ev.RandRowActs += randActs
	st.FrontierOut += n
}

// step6Apply is SPU k's share of the dense Applying op over its output
// range: output[v] = output[v] ⊕ (alpha ⊗ y[v]). Every slot that ends
// non-clean is marked dirty (the scan rides the same stream).
//
//gearbox:steadystate
func (m *Machine) step6Apply(k int, apply *ApplySpec, ev *Events) {
	r := m.plan.Ranges[k]
	if r.Len() == 0 {
		m.busy[k] = 0
		return
	}
	for v := r.First; v <= r.Last; v++ {
		m.output[v] = m.add(m.output[v], m.mul(apply.Alpha, apply.Y[v]))
		if !m.isZero(m.output[v]) {
			m.markDirty(v)
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
			if m.isZero(old) {
				m.logicDirtyAdd(r)
			}
			m.logicAcc[r] = m.add(old, rep[r])
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
			m.logicAcc[r] = m.add(m.logicAcc[r], m.mul(apply.Alpha, apply.Y[r]))
			if !m.isZero(m.logicAcc[r]) {
				m.logicDirtyAdd(r)
			}
			ev.LogicOps += 2
		}
	} else {
		clear(m.busy)
	}

	// Emit the next frontier and reset output slots to clean.
	next := m.getFrontier()
	m.step6Emit(next, st, ev)
	// Long outputs become next-iteration logic-layer frontier entries.
	if len(m.logicDirty) > 0 {
		slices.Sort(m.logicDirty)
		for i, r := range m.logicDirty {
			if i > 0 && m.logicDirty[i-1] == r {
				continue
			}
			v := m.logicAcc[r]
			if m.isZero(v) {
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
