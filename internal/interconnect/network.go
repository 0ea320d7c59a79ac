// Package interconnect models the Gearbox communication fabric of Fig. 8:
// a line topology joining the SPUs of one bank to the bank's Dispatcher, a
// ring joining the banks of one memory layer, and TSVs joining layers within
// a vault (plus the logic layer below layer 0).
//
// The model is bandwidth/latency accurate at step granularity: every packet
// charges per-segment hop latency (0.8 ns per Table 2) and occupies the links
// on its route for its serialization time (64 lanes at 1.2 GHz); DrainNs
// reports the busiest link's total occupancy, which is the time the network
// needs to deliver everything routed since the last Reset.
//
// Every line leg starts or ends at the bank's Dispatcher (§4.3: packets
// leave and enter a bank through it), so every leg crosses the line segment
// next to the Dispatcher. Charges are non-negative and float addition is
// monotone, so no segment of a line is ever busier than that one: a line's
// occupancy is one number, the Dispatcher-adjacent segment's, and DrainNs
// is the same as with a per-segment count.
package interconnect

import (
	"fmt"

	"gearbox/internal/mem"
)

// LogicLayer is the pseudo layer index for logic-layer endpoints.
const LogicLayer = -1

// PairBits is the size of one remote-accumulation packet: a 32-bit index and
// a 32-bit value, the (index,value) pairs of §4.3.
const PairBits = 64

// Network accumulates routed traffic and link occupancy.
type Network struct {
	geo   mem.Geometry
	tim   mem.Timing
	serNs float64 // time one packet occupies each link on its route

	// busyNs per link class; indices documented on the accessors below.
	ringBusy [][]float64 // [layer][segment]; segment s joins bank s and s+1 mod B
	tsvBusy  []float64   // [vault]; one vertical bus per vault incl. logic layer hop
	lineBusy []float64   // [layer*B+bank]; the line segment next to the Dispatcher

	hopWords  int64 // total (packet x segment) traversals, for energy
	tsvWords  int64 // total (packet x layer-crossing) traversals
	packets   int64
	maxBusyNs float64

	// Per-link word counters for the telemetry layer, cleared by Reset like
	// the occupancy above. ringSegWords counts packets crossing each ring
	// segment (flattened [layer*BanksPerLayer+segment]); tsvVaultWords
	// counts packets entering each vault's TSV bus (once per packet, unlike
	// tsvWords which weights by layer-crossings).
	ringSegWords  []int64
	tsvVaultWords []int64
}

// New returns an empty network for the given stack shape.
func New(g mem.Geometry, t mem.Timing) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := &Network{geo: g, tim: t, serNs: t.PacketSerializationNs(PairBits)}
	n.ringBusy = make([][]float64, g.Layers)
	for l := range n.ringBusy {
		n.ringBusy[l] = make([]float64, g.BanksPerLayer)
	}
	n.tsvBusy = make([]float64, g.Vaults)
	n.lineBusy = make([]float64, g.Layers*g.BanksPerLayer)
	n.ringSegWords = make([]int64, g.Layers*g.BanksPerLayer)
	n.tsvVaultWords = make([]int64, g.Vaults)
	return n, nil
}

// DispatcherPos is the line position of the Dispatcher SPU: the subarray
// pair closest to the ring interconnect (§4.3).
func (n *Network) DispatcherPos() int { return n.geo.SPUsPerBank() - 1 }

// Route describes the segments a packet crosses; returned for tests and
// latency computation.
type Route struct {
	LineHops int // intra-bank segments (source side + destination side)
	RingHops int // intra-layer segments
	TSVHops  int // layer crossings (logic layer counts as one extra)
}

// Hops reports total segment count.
func (r Route) Hops() int { return r.LineHops + r.RingHops + r.TSVHops }

// RouteSPUToSPU computes the path between two SPUs without charging traffic.
// Every packet goes through the Dispatchers, a same-bank one too (§4.3).
func (n *Network) RouteSPUToSPU(src, dst mem.SPUID) Route {
	r := Route{
		LineHops: n.geo.LineDistance(src.SPU, n.DispatcherPos()) + n.geo.LineDistance(n.DispatcherPos(), dst.SPU),
		TSVHops:  n.geo.TSVDistance(src.Layer, dst.Layer),
	}
	r.RingHops = n.geo.RingDistance(src.Bank, dst.Bank)
	return r
}

// RouteToLogic computes the path from an SPU down to the logic layer.
func (n *Network) RouteToLogic(src mem.SPUID) Route {
	return Route{
		LineHops: n.geo.LineDistance(src.SPU, n.DispatcherPos()),
		TSVHops:  src.Layer + 1, // down through the stack to the logic layer
	}
}

// LatencyNs reports the unloaded one-packet latency of a route.
func (n *Network) LatencyNs(r Route) float64 {
	return float64(r.Hops())*n.tim.SegmentNs + n.serNs
}

// SendSPUToSPU charges packets of traffic along the SPU-to-SPU route and
// returns it.
func (n *Network) SendSPUToSPU(src, dst mem.SPUID, packets int64) Route {
	r := n.RouteSPUToSPU(src, dst)
	n.charge(src, dst, r, packets)
	return r
}

// SendToLogic charges packets from an SPU to the logic layer.
func (n *Network) SendToLogic(src mem.SPUID, packets int64) Route {
	r := n.RouteToLogic(src)
	dst := mem.SPUID{Layer: LogicLayer, Bank: src.Bank, SPU: n.DispatcherPos()}
	n.charge(src, dst, r, packets)
	return r
}

// SendLine charges packets over the line of flat bank
// (layer*BanksPerLayer+bank) between SPU position spu and the bank's
// Dispatcher, in either direction. It is SendSPUToSPU for a pair of one
// bank's SPUs of which one is the Dispatcher, keyed by the flat bank the
// caller already holds.
func (n *Network) SendLine(bank, spu int, packets int64) {
	if packets <= 0 {
		return
	}
	n.chargeLine(bank, spu, float64(packets)*n.serNs)
	n.hopWords += packets * int64(n.geo.LineDistance(spu, n.DispatcherPos()))
	n.packets += packets
}

// BroadcastFromLogic charges a broadcast of words packets from the logic
// layer to every bank (Step 1 of §5: long-activating frontier entries).
// Broadcast rides every TSV and the full ring of every layer once.
func (n *Network) BroadcastFromLogic(words int64) {
	if words <= 0 {
		return
	}
	ser := float64(words) * n.serNs
	for v := range n.tsvBusy {
		n.tsvBusy[v] += ser
		n.bump(n.tsvBusy[v])
		n.tsvVaultWords[v] += words
	}
	for l := range n.ringBusy {
		for s := range n.ringBusy[l] {
			n.ringBusy[l][s] += ser
			n.bump(n.ringBusy[l][s])
			n.ringSegWords[l*n.geo.BanksPerLayer+s] += words
		}
	}
	n.hopWords += words * int64(n.geo.Layers*n.geo.BanksPerLayer)
	n.tsvWords += words * int64(n.geo.Vaults)
	n.packets += words
}

func (n *Network) charge(src, dst mem.SPUID, r Route, packets int64) {
	if packets <= 0 {
		return
	}
	ser := float64(packets) * n.serNs

	// Source side line to the Dispatcher at the ring edge.
	if src.Layer != LogicLayer {
		n.chargeLine(src.Layer*n.geo.BanksPerLayer+src.Bank, src.SPU, ser)
	}
	// Ring segments in the source layer (bank-to-bank shortest arc).
	if src.Layer != LogicLayer && dst.Layer != LogicLayer && src.Bank != dst.Bank {
		n.chargeRing(src.Layer, src.Bank, dst.Bank, ser, packets)
	}
	// TSV bus of the destination vault.
	if r.TSVHops > 0 {
		v := n.geo.VaultOf(dst.Bank)
		n.tsvBusy[v] += ser
		n.bump(n.tsvBusy[v])
		n.tsvVaultWords[v] += packets
	}
	// Destination side line from the Dispatcher to the target SPU.
	if dst.Layer != LogicLayer {
		n.chargeLine(dst.Layer*n.geo.BanksPerLayer+dst.Bank, dst.SPU, ser)
	}

	n.hopWords += packets * int64(r.LineHops+r.RingHops)
	n.tsvWords += packets * int64(r.TSVHops)
	n.packets += packets
}

// chargeLine charges the leg between SPU position spu of flat bank and the
// bank's Dispatcher; the Dispatcher itself has no line leg.
func (n *Network) chargeLine(bank, spu int, ser float64) {
	if spu == n.DispatcherPos() {
		return
	}
	n.lineBusy[bank] += ser
	n.bump(n.lineBusy[bank])
}

func (n *Network) chargeRing(layer, bankA, bankB int, ser float64, packets int64) {
	b := n.geo.BanksPerLayer
	d := (bankB - bankA + b) % b
	segs := n.ringBusy[layer]
	words := n.ringSegWords[layer*b:]
	if d <= b-d {
		for i := 0; i < d; i++ {
			s := (bankA + i) % b
			segs[s] += ser
			n.bump(segs[s])
			words[s] += packets
		}
	} else {
		for i := 0; i < b-d; i++ {
			s := (bankA - 1 - i + b) % b
			segs[s] += ser
			n.bump(segs[s])
			words[s] += packets
		}
	}
}

func (n *Network) bump(v float64) {
	if v > n.maxBusyNs {
		n.maxBusyNs = v
	}
}

// DrainNs reports the occupancy of the busiest link: the minimum time needed
// to deliver all traffic charged since the last Reset.
func (n *Network) DrainNs() float64 { return n.maxBusyNs }

// HopWords reports total packet-segment traversals (line+ring), for energy.
func (n *Network) HopWords() int64 { return n.hopWords }

// TSVWords reports total packet-layer-crossings, for energy.
func (n *Network) TSVWords() int64 { return n.tsvWords }

// Packets reports the number of packets routed since Reset.
func (n *Network) Packets() int64 { return n.packets }

// RingSegmentWords reports per-ring-segment packet counts since Reset,
// flattened [layer*BanksPerLayer+segment]. The slice is borrowed: it stays
// owned by the network and is zeroed by the next Reset.
func (n *Network) RingSegmentWords() []int64 { return n.ringSegWords }

// TSVVaultWords reports per-vault TSV packet counts since Reset (each packet
// counted once when it enters the vault's vertical bus, regardless of how
// many layers it crosses — unlike the energy-weighted TSVWords total). The
// slice is borrowed like RingSegmentWords.
func (n *Network) TSVVaultWords() []int64 { return n.tsvVaultWords }

// Reset clears all occupancy and counters.
func (n *Network) Reset() {
	for _, segs := range n.ringBusy {
		clear(segs)
	}
	clear(n.tsvBusy)
	clear(n.lineBusy)
	clear(n.ringSegWords)
	clear(n.tsvVaultWords)
	n.hopWords, n.tsvWords, n.packets, n.maxBusyNs = 0, 0, 0, 0
}

// String summarizes the traffic for logs.
func (n *Network) String() string {
	return fmt.Sprintf("interconnect{packets=%d hopWords=%d tsvWords=%d drain=%.1fns}",
		n.packets, n.hopWords, n.tsvWords, n.maxBusyNs)
}
