package gearbox

// Pooled per-iteration accounting scratch. Everything here exists so that
// steady-state Iterate allocates nothing: the per-destination and per-bank
// pair counts of steps 3-5 and the epoch-stamped slot marks that replaced
// step 6's per-bank maps.

// foldTally is one destination SPU's step 5 ScatterAccumulate cost, built
// up pair by pair in receive order. Outside step 5 every tally is clean:
// zero counts and lastRow -1.
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
	for d := range m.scr.fold {
		m.scr.fold[d].lastRow = -1
	}
	if nLong := int(m.plan.LastLong) + 1; m.replicate && nLong > 0 {
		for bf := range m.scr.bankSlotMark {
			m.scr.bankSlotMark[bf] = make([]int32, nLong)
		}
	}
}
