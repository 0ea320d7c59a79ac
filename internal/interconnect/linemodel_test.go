package interconnect

import (
	"math/rand"
	"slices"
	"testing"

	"gearbox/internal/mem"
)

// segModel is the reference the one-occupancy line model must match: every
// link segment keeps its own occupancy, the lines included (segment s joins
// SPU positions s and s+1), and every packet goes through the Dispatchers.
type segModel struct {
	geo   mem.Geometry
	serNs float64

	line  [][]float64 // [layer*B+bank][segment]
	ring  [][]float64 // [layer][segment]
	tsv   []float64   // [vault]
	drain float64

	hopWords, tsvWords, packets int64
	ringWords, tsvVaultWords    []int64
}

func newSegModel(g mem.Geometry, t mem.Timing) *segModel {
	m := &segModel{geo: g, serNs: t.PacketSerializationNs(PairBits)}
	m.line = make([][]float64, g.Layers*g.BanksPerLayer)
	for b := range m.line {
		m.line[b] = make([]float64, g.SPUsPerBank()-1)
	}
	m.ring = make([][]float64, g.Layers)
	for l := range m.ring {
		m.ring[l] = make([]float64, g.BanksPerLayer)
	}
	m.tsv = make([]float64, g.Vaults)
	m.ringWords = make([]int64, g.Layers*g.BanksPerLayer)
	m.tsvVaultWords = make([]int64, g.Vaults)
	return m
}

func (m *segModel) occupy(link *float64, ser float64) {
	*link += ser
	if *link > m.drain {
		m.drain = *link
	}
}

// leg charges every segment between SPU id and its bank's Dispatcher and
// returns the hop count.
func (m *segModel) leg(id mem.SPUID, ser float64) int {
	if id.Layer == LogicLayer {
		return 0
	}
	disp := m.geo.SPUsPerBank() - 1
	segs := m.line[id.Layer*m.geo.BanksPerLayer+id.Bank]
	for s := id.SPU; s < disp; s++ {
		m.occupy(&segs[s], ser)
	}
	return disp - id.SPU
}

func (m *segModel) send(src, dst mem.SPUID, packets int64) {
	if packets <= 0 {
		return
	}
	ser := float64(packets) * m.serNs
	hops := m.leg(src, ser)
	if src.Layer != LogicLayer && dst.Layer != LogicLayer && src.Bank != dst.Bank {
		b := m.geo.BanksPerLayer
		fwd := (dst.Bank - src.Bank + b) % b
		for i := 0; i < min(fwd, b-fwd); i++ {
			s := (src.Bank + i) % b
			if fwd > b-fwd {
				s = (src.Bank - 1 - i + b) % b
			}
			m.occupy(&m.ring[src.Layer][s], ser)
			m.ringWords[src.Layer*b+s] += packets
			hops++
		}
	}
	crossings := dst.Layer - src.Layer
	if dst.Layer == LogicLayer {
		crossings = src.Layer + 1
	}
	crossings = max(crossings, -crossings)
	if crossings > 0 {
		v := m.geo.VaultOf(dst.Bank)
		m.occupy(&m.tsv[v], ser)
		m.tsvVaultWords[v] += packets
	}
	hops += m.leg(dst, ser)
	m.hopWords += packets * int64(hops)
	m.tsvWords += packets * int64(crossings)
	m.packets += packets
}

func (m *segModel) broadcast(words int64) {
	if words <= 0 {
		return
	}
	ser := float64(words) * m.serNs
	for v := range m.tsv {
		m.occupy(&m.tsv[v], ser)
		m.tsvVaultWords[v] += words
	}
	for l := range m.ring {
		for s := range m.ring[l] {
			m.occupy(&m.ring[l][s], ser)
			m.ringWords[l*m.geo.BanksPerLayer+s] += words
		}
	}
	m.hopWords += words * int64(len(m.ringWords))
	m.tsvWords += words * int64(len(m.tsv))
	m.packets += words
}

func (m *segModel) reset() {
	for _, segs := range m.line {
		clear(segs)
	}
	for _, segs := range m.ring {
		clear(segs)
	}
	clear(m.tsv)
	clear(m.ringWords)
	clear(m.tsvVaultWords)
	m.drain, m.hopWords, m.tsvWords, m.packets = 0, 0, 0, 0
}

// TestLineDrainMatchesSegmentModel drives the network and the per-segment
// reference with the same random traffic and requires every counter to be
// bit-equal after every call. Rounds start with a Reset and favour
// different traffic, so that in some the lines are the busiest links and in
// others the ring or the TSVs are.
func TestLineDrainMatchesSegmentModel(t *testing.T) {
	for _, g := range []mem.Geometry{mem.DefaultGeometry(), {
		Vaults: 2, Layers: 3, BanksPerLayer: 4, SubarraysPerBank: 8,
		RowBytes: 256, WordBytes: 4, SubarrayRows: 16,
	}} {
		tim := mem.DefaultTiming()
		n, err := New(g, tim)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSegModel(g, tim)
		rng := rand.New(rand.NewSource(28))
		disp := g.SPUsPerBank() - 1
		spu := func(layer, bank int) mem.SPUID {
			return mem.SPUID{Layer: layer, Bank: bank, SPU: rng.Intn(g.SPUsPerBank())}
		}
		anySPU := func() mem.SPUID { return spu(rng.Intn(g.Layers), rng.Intn(g.BanksPerLayer)) }
		packets := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return rng.Int63n(5000)
			}
			return rng.Int63n(7)
		}
		for round := 0; round < 60; round++ {
			n.Reset()
			ref.reset()
			// Weights of [line leg, same bank, same layer, cross layer,
			// to logic, broadcast].
			w := [6]int{}
			for i := range w {
				w[i] = rng.Intn(4)
			}
			w[0] += 4
			total := 0
			for _, x := range w {
				total += x
			}
			for op := 0; op < 200; op++ {
				kind, r := 0, rng.Intn(total)
				for r >= w[kind] {
					r -= w[kind]
					kind++
				}
				p := packets()
				switch kind {
				case 0: // a step 3/4/6 line leg, either direction
					bank := rng.Intn(g.Layers * g.BanksPerLayer)
					id := spu(bank/g.BanksPerLayer, bank%g.BanksPerLayer)
					dsp := id
					dsp.SPU = disp
					if rng.Intn(2) == 0 {
						n.SendLine(bank, id.SPU, p)
					} else {
						n.SendSPUToSPU(dsp, id, p)
					}
					ref.send(id, dsp, p)
				case 1:
					src := anySPU()
					dst := spu(src.Layer, src.Bank)
					n.SendSPUToSPU(src, dst, p)
					ref.send(src, dst, p)
				case 2:
					src := anySPU()
					dst := spu(src.Layer, rng.Intn(g.BanksPerLayer))
					n.SendSPUToSPU(src, dst, p)
					ref.send(src, dst, p)
				case 3:
					src, dst := anySPU(), anySPU()
					n.SendSPUToSPU(src, dst, p)
					ref.send(src, dst, p)
				case 4:
					src := anySPU()
					n.SendToLogic(src, p)
					ref.send(src, mem.SPUID{Layer: LogicLayer, Bank: src.Bank, SPU: disp}, p)
				case 5:
					n.BroadcastFromLogic(p % 9)
					ref.broadcast(p % 9)
				}
				if n.DrainNs() != ref.drain || n.HopWords() != ref.hopWords ||
					n.TSVWords() != ref.tsvWords || n.Packets() != ref.packets ||
					!slices.Equal(n.RingSegmentWords(), ref.ringWords) ||
					!slices.Equal(n.TSVVaultWords(), ref.tsvVaultWords) {
					t.Fatalf("%d layers, round %d, op %d (kind %d, %d packets): network drain %v hops %d tsv %d packets %d, reference drain %v hops %d tsv %d packets %d",
						g.Layers, round, op, kind, p, n.DrainNs(), n.HopWords(), n.TSVWords(), n.Packets(),
						ref.drain, ref.hopWords, ref.tsvWords, ref.packets)
				}
			}
		}
	}
}
