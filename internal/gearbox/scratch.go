package gearbox

// Pooled per-iteration scratch and the frontier recycle API. Everything here
// exists so that steady-state Iterate allocates nothing: the per-destination
// and per-bank pair counts of steps 3-5, the epoch-stamped slot marks that
// replaced step 6's per-bank maps, and the pool of Frontier shells that
// DistributeFrontier and step 6 draw from once applications opt in with
// Recycle.

// foldTally is one destination SPU's step 5 ScatterAccumulate cost, built
// up pair by pair in receive order.
type foldTally struct {
	instr, randActs, lastRow int64
}

type scratch struct {
	// recv[d] is the number of dispatcher pairs bound for destination SPU d
	// this iteration, tallied by step 3; recvPerBank folds it by the
	// destination's bank. Steps 3 and 4 both charge the Dispatchers by
	// recvPerBank.
	recv               []int64
	recvPerBank        []int64
	fold               []foldTally
	logicPairsPerVault []int64
	logicPerVault      []float64

	// bankSlotMark[bf][r] == epoch marks long slot r as already counted for
	// flat bank bf this iteration; bankSlotCount[bf] is the distinct-slot
	// count (all the old per-bank map[int32]bool was consulted for). Marks
	// are allocated for every bank on replicating machines.
	bankSlotMark  [][]int32
	bankSlotCount []int64
	epoch         int32
}

// initScratch sizes the pooled buffers.
func (m *Machine) initScratch() {
	banks := m.cfg.Geo.Layers * m.cfg.Geo.BanksPerLayer
	m.scr = scratch{
		recv:               make([]int64, m.plan.NumSPUs),
		recvPerBank:        make([]int64, banks),
		fold:               make([]foldTally, m.plan.NumSPUs),
		logicPairsPerVault: make([]int64, m.cfg.Geo.Vaults),
		logicPerVault:      make([]float64, m.cfg.Geo.Vaults),
		bankSlotMark:       make([][]int32, banks),
		bankSlotCount:      make([]int64, banks),
	}
	if nLong := int(m.plan.LastLong) + 1; m.replicate && nLong > 0 {
		for bf := range m.scr.bankSlotMark {
			m.scr.bankSlotMark[bf] = make([]int32, nLong)
		}
	}
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
