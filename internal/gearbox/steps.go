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

// step1FrontierDistribution splits the input frontier by residence and
// broadcasts the long-activating entries from the logic layer to all
// subarrays (§5 Step 1) and, for HypoGearboxV2, the whole input vector.
//
//gearbox:steadystate
func (m *Machine) step1FrontierDistribution(in []FrontierEntry, st *IterStats) {
	m.resetScratch()
	m.net.Reset()
	m.distribute(in)

	words := int64(2 * len(m.fLong))
	if m.hypo {
		words = int64(2 * len(in))
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

// distribute splits in (validated by Iterate) by residence: long-column
// activators into fLong, every other entry into its owner SPU's slice of
// fShort. The split is a stable counting sort, so each SPU's entries and
// the long list keep the caller's order, which is the order step 3 folds
// them in.
//
//gearbox:steadystate
func (m *Machine) distribute(in []FrontierEntry) {
	owners, lastLong, start := m.plan.OwnerOf, m.plan.LastLong, m.fStart
	clear(start)
	long := m.fLong[:0]
	for _, e := range in {
		if e.Index <= lastLong {
			long = append(long, e) //gearbox:alloc-ok recycled split buffer; grows to its high-water mark
		} else {
			start[owners[e.Index]+1]++
		}
	}
	m.fLong = long
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	// start[k] is now SPU k's first slot; it serves as the SPU's fill
	// cursor, which leaves it at SPU k+1's first slot, so one shift
	// restores the offsets.
	short := slices.Grow(m.fShort[:0], len(in)-len(long))[:len(in)-len(long)] //gearbox:alloc-ok recycled split buffer; grows to its high-water mark
	for _, e := range in {
		if e.Index > lastLong {
			k := owners[e.Index]
			short[start[k]] = e
			start[k]++
		}
	}
	copy(start[1:], start)
	start[0] = 0
	m.fShort = short
}

// step2OffsetPacking packs (column offset, length, frontier value) triples
// per frontier entry (Fig. 10).
//
//gearbox:steadystate
func (m *Machine) step2OffsetPacking(st *IterStats) {
	s := &st.Steps[1]
	s.StallRounds = 1
	long := int64(len(m.fLong))
	pack, stall := m.instrCosts.packInstrs, m.instrCosts.packStallNs
	busy, start := m.busy, m.fStart
	var instrs, acts int64
	for k, span := range m.packSpan {
		e := int64(start[k+1] - start[k])
		// Owned-column offset lookups walk the shard's offsets array in
		// sorted order, so activations are bounded by the rows the offsets
		// span; long entries index the fragment table individually.
		a := min(e, int64(span)) + long
		i := (e + long) * pack
		busy[k] = float64(i)*m.cyc + float64(a)*stall
		instrs += i
		acts += a
	}
	s.Events.SPUInstrs += instrs
	s.Events.RandRowActs += acts
	s.TimeNs = m.cfg.Tim.LaunchNs + m.busyStats(s)*m.refresh
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
func (m *Machine) step3SPU(k int, st *IterStats, ev *Events) {
	cols, items := m.fShort[m.fStart[k]:m.fStart[k+1]], m.longWork[k]
	k32 := int32(k)
	owners, out, recv := m.plan.OwnerOf, m.output, m.scr.recv
	lastLong, hypo := m.plan.LastLong, m.hypo
	replicate := m.replicate && lastLong >= 0 && !hypo
	inject := m.cfg.BitErrorRate > 0
	macLocal, macRemote := m.instrCosts.macLocal, m.instrCosts.macRemote
	rowWords := m.rowWords
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

	m.busy[k] = float64(instr)*m.cyc + float64(randActs)*m.instrCosts.macStallNs
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

	m.net.SendLine(int(m.bankOf[k]), int(m.linePos[k]), sent)
	if logic > 0 {
		srcID := m.plan.SPUIDOf(k)
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
// O(|fLong| x NumSPUs). Duplicate and unsorted activations keep their
// order, so each SPU folds exactly the sequence the per-column walk did.
//
//gearbox:steadystate
func (m *Machine) buildLongWork() {
	for _, fe := range m.fLong {
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
func (m *Machine) step3LocalAccumulations(st *IterStats) {
	m.net.Reset()

	s := &st.Steps[2]
	s.StallRounds = 1

	scr := &m.scr
	clear(scr.recv)
	logicPairsPerVault := scr.logicPairsPerVault
	clear(logicPairsPerVault)
	var ev Events
	m.buildLongWork()
	for k := 0; k < m.plan.NumSPUs; k++ {
		if m.fStart[k] == m.fStart[k+1] && len(m.longWork[k]) == 0 {
			// Idle this iteration, as most SPUs are on a sparse frontier.
			m.busy[k] = 0
			if m.tel != nil {
				m.telLocal[k], m.telRemote[k], m.telLng[k] = 0, 0, 0
			}
			continue
		}
		m.step3SPU(k, st, &ev)
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
	st.ActivatedColumns += int64(len(m.fLong))

	// Receiving dispatchers buffer pairs concurrently with compute, one
	// Walker row (WordsPerRow/2 pairs) at a time.
	pairsPerRow := m.rowWords / 2
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

	t := m.busyStats(s)
	logicBusy := 0.0
	for _, n := range logicPairsPerVault {
		if b := float64(n) * m.instrCosts.logicOpNsPerPair; b > logicBusy {
			logicBusy = b
		}
	}
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

	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refresh
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
		m.net.SendLine(int(m.bankOf[k]), int(m.linePos[k]), n)
	}
	pairsPerRow := m.rowWords / 2
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
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refresh + float64(rounds-1)*2*m.cfg.Tim.LaunchNs
	s.Events = ev
}

// step5RemoteAccumulations has every Compute SPU fold the received pairs
// into its output shard with the ScatterAccumulate kernel, marking
// clean-indicator indexes for the frontier (§5 Step 5). One walk of step
// 3's dispatcher stream, which is in (ascending source SPU, emission
// order), gives every destination its pairs in that order.
//
// Each destination's tally starts clean (lastRow -1) and is reset when its
// busy time is read, so only destinations that received pairs are touched.
//
//gearbox:steadystate
func (m *Machine) step5RemoteAccumulations(st *IterStats) {
	s := &st.Steps[4]
	s.StallRounds = 1
	ev := &s.Events
	fold := m.scr.fold
	var aluOps, cleanHits int64
	if m.op >= opMinPlus {
		aluOps, cleanHits = m.step5FoldMin()
	} else {
		aluOps, cleanHits = m.step5Fold()
	}
	ev.ALUOps += aluOps
	st.CleanHits += cleanHits
	stall, rowWords := m.instrCosts.foldStallNs, m.rowWords
	for d, n := range m.scr.recv {
		if n == 0 {
			m.busy[d] = 0
			continue
		}
		t := fold[d]
		fold[d] = foldTally{lastRow: -1}
		m.busy[d] = float64(t.instr)*m.cyc + float64(t.randActs)*stall
		ev.SPUInstrs += t.instr
		ev.RandRowActs += t.randActs
		ev.SeqRowActs += 2*n/rowWords + 1
	}
	s.TimeNs = m.cfg.Tim.LaunchNs + m.busyStats(s)*m.refresh
}

// step5Fold is step 5's walk of the dispatcher stream for any algebra. It
// returns the ALU ops and clean hits of the walk.
//
//gearbox:steadystate
func (m *Machine) step5Fold() (aluOps, cleanHits int64) {
	fold, out, vals := m.scr.fold, m.output, m.dispVal
	scatter, cleanAppend := m.instrCosts.scatterLocal, m.instrCosts.cleanAppend
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
	return aluOps, cleanHits
}

// step5FoldMin is step5Fold for the min algebras (min-plus, min-first),
// with the data-dependent branches of a sparse frontier taken out of the
// remote pair's body. It marks the slot dirty whether or not it was clean,
// which emits nothing extra: step 6 skips slots that end clean, and a slot
// already non-clean was marked when it turned so (by step 3's logic-layer
// fold or earlier in this walk) or has its clean-indicator pair in this
// stream. The clean hit and the row change count as 0/1 values, and the
// fold is add's compare-select. Plus-times keeps step5Fold: this body
// measured slower on its dense frontiers.
//
//gearbox:steadystate
func (m *Machine) step5FoldMin() (aluOps, cleanHits int64) {
	fold, out, vals, clean := m.scr.fold, m.output, m.dispVal, m.clean
	scatter, cleanAppend := m.instrCosts.scatterLocal, m.instrCosts.cleanAppend
	for i, key := range m.dispKey {
		d, enc := int32(key>>32), int32(uint32(key))
		t := &fold[d]
		if enc < 0 {
			// Clean indicator: the row arrives bit-complemented.
			m.markDirty(^enc)
			t.instr += cleanAppend
			continue
		}
		old, v := out[enc], vals[i]
		hit := b2i(old == clean)
		row := int64(enc) >> 6
		m.markDirty(enc)
		t.instr += scatter + hit*cleanAppend
		t.randActs += b2i(row != t.lastRow)
		t.lastRow = row
		cleanHits += hit
		aluOps++
		if old < v {
			v = old
		}
		out[enc] = v
	}
	return aluOps, cleanHits
}

// b2i is 1 for true and 0 for false, without a branch.
//
//gearbox:steadystate
func b2i(b bool) int64 {
	var i int64
	if b {
		i = 1
	}
	return i
}

// step6Emit is the short part of the frontier emission: one ascending walk
// of the dirty bitmap appends every non-clean short slot to dst, resets it
// to clean, and clears the bitmap as it goes. The ranges tile the short
// region contiguously in ascending SPU order, so the walk switches SPU at
// Ranges[k].Last, charges each SPU for its own run of entries, and the
// appended entries come out sorted and deduped.
//
//gearbox:steadystate
func (m *Machine) step6Emit(dst []FrontierEntry, st *IterStats, ev *Events) []FrontierEntry {
	ranges, dirty, out := m.plan.Ranges, m.dirtyBits, m.output
	k, from := -1, len(dst)
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
				m.emitDone(k, int64(len(dst)-from), randActs, st, ev)
				for k++; idx > ranges[k].Last; k++ {
				}
				from, lastRow, randActs = len(dst), -1, 0
			}
			dst = append(dst, FrontierEntry{Index: idx, Value: v}) //gearbox:alloc-ok caller-owned buffer; grows to its high-water mark
			out[idx] = m.clean
			if row := int64(idx) >> 6; row != lastRow {
				randActs++
				lastRow = row
			}
		}
	}
	m.emitDone(k, int64(len(dst)-from), randActs, st, ev)
	return dst
}

// emitDone charges SPU k for emitting n entries; k < 0 (nothing emitted
// yet) is a no-op.
//
//gearbox:steadystate
func (m *Machine) emitDone(k int, n, randActs int64, st *IterStats, ev *Events) {
	if k < 0 {
		return
	}
	m.busy[k] += float64(n*m.instrCosts.frontierEmit)*m.cyc + float64(randActs)*m.instrCosts.emitStallNs
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
	ev.SeqRowActs += 2*words/m.rowWords + 1
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
		m.net.SendLine(int(bf), int(m.linePos[k]), n)
		ev.SPUInstrs += n * 2 // read replica slot + send
	}
	pairsPerRow := m.rowWords / 2
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
// (V3), performs the optional Applying op, appends the next frontier from
// the newly non-clean slots to dst (long part first, so the whole is
// ascending), and resets the output vector to clean indicators (§5 Step
// 6). The reduction retires before the apply, which folds into the same
// logic accumulator.
//
//gearbox:steadystate
func (m *Machine) step6Applying(dst []FrontierEntry, apply *ApplySpec, st *IterStats) []FrontierEntry {
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

	// Emit the next frontier and reset output slots to clean. Long outputs
	// become next-iteration logic-layer frontier entries; they precede
	// every short index.
	if len(m.logicDirty) > 0 {
		from := len(dst)
		slices.Sort(m.logicDirty)
		for i, r := range m.logicDirty {
			if i > 0 && m.logicDirty[i-1] == r {
				continue
			}
			v := m.logicAcc[r]
			if m.isZero(v) {
				continue
			}
			dst = append(dst, FrontierEntry{Index: r, Value: v}) //gearbox:alloc-ok caller-owned buffer; grows to its high-water mark
			m.logicAcc[r] = m.clean
			ev.LogicOps += 2
		}
		st.FrontierOut += int64(len(dst) - from)
		m.logicDirty = m.logicDirty[:0]
	}
	dst = m.step6Emit(dst, st, ev)

	t := maxOf(m.busy)
	if lb := maxOf(logicPerVault); lb > t {
		t = lb
	}
	if d := m.net.DrainNs(); d > t {
		t = d
	}
	ev.NetHopWords += m.net.HopWords()
	ev.TSVWords += m.net.TSVWords()
	s.TimeNs = m.cfg.Tim.LaunchNs + t*m.refresh
	return dst
}
