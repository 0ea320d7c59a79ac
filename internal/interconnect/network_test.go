package interconnect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gearbox/internal/mem"
)

func newNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(mem.DefaultGeometry(), mem.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	g := mem.DefaultGeometry()
	g.Vaults = 0
	if _, err := New(g, mem.DefaultTiming()); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if _, err := New(mem.DefaultGeometry(), mem.Timing{}); err == nil {
		t.Fatal("invalid timing accepted")
	}
}

func TestRouteSameBank(t *testing.T) {
	n := newNet(t)
	r := n.RouteSPUToSPU(mem.SPUID{Layer: 2, Bank: 5, SPU: 3}, mem.SPUID{Layer: 2, Bank: 5, SPU: 9})
	// Through the Dispatcher at position 15: 3->15 is 12 hops, 15->9 is 6.
	if r.LineHops != 12+6 || r.RingHops != 0 || r.TSVHops != 0 {
		t.Fatalf("same-bank route = %+v", r)
	}
}

func TestRouteSameLayerDifferentBank(t *testing.T) {
	n := newNet(t)
	src := mem.SPUID{Layer: 1, Bank: 0, SPU: 0}
	dst := mem.SPUID{Layer: 1, Bank: 3, SPU: 10}
	r := n.RouteSPUToSPU(src, dst)
	// Line: 0->15 (dispatcher) = 15, then 15->10 = 5 on the destination side.
	if r.LineHops != 15+5 {
		t.Fatalf("line hops = %d, want 20", r.LineHops)
	}
	if r.RingHops != 3 || r.TSVHops != 0 {
		t.Fatalf("route = %+v", r)
	}
}

func TestRouteCrossLayer(t *testing.T) {
	n := newNet(t)
	r := n.RouteSPUToSPU(mem.SPUID{Layer: 0, Bank: 0, SPU: 15}, mem.SPUID{Layer: 7, Bank: 0, SPU: 15})
	if r.TSVHops != 7 || r.RingHops != 0 || r.LineHops != 0 {
		t.Fatalf("route = %+v", r)
	}
}

func TestRouteToLogic(t *testing.T) {
	n := newNet(t)
	r := n.RouteToLogic(mem.SPUID{Layer: 3, Bank: 9, SPU: 15})
	if r.TSVHops != 4 { // layers 3,2,1,0 -> logic
		t.Fatalf("TSV hops = %d, want 4", r.TSVHops)
	}
	if r.LineHops != 0 {
		t.Fatalf("line hops = %d, want 0 (dispatcher is already at the ring)", r.LineHops)
	}
}

func TestLatencyNs(t *testing.T) {
	n := newNet(t)
	tm := mem.DefaultTiming()
	r := Route{LineHops: 2, RingHops: 3, TSVHops: 1}
	want := 6*tm.SegmentNs + tm.PacketSerializationNs(PairBits)
	if got := n.LatencyNs(r); math.Abs(got-want) > 1e-12 {
		t.Fatalf("latency = %v, want %v", got, want)
	}
}

func TestDrainGrowsWithTraffic(t *testing.T) {
	n := newNet(t)
	src := mem.SPUID{Layer: 0, Bank: 0, SPU: 0}
	dst := mem.SPUID{Layer: 0, Bank: 1, SPU: 0}
	n.SendSPUToSPU(src, dst, 100)
	d1 := n.DrainNs()
	n.SendSPUToSPU(src, dst, 100)
	d2 := n.DrainNs()
	if !(d2 > d1 && d1 > 0) {
		t.Fatalf("drain did not grow: %v then %v", d1, d2)
	}
	// 200 packets over the same links: busiest link holds 200 serializations.
	want := 200 * mem.DefaultTiming().PacketSerializationNs(PairBits)
	if math.Abs(d2-want) > 1e-9 {
		t.Fatalf("drain = %v, want %v", d2, want)
	}
}

func TestDisjointRoutesDoNotContend(t *testing.T) {
	n := newNet(t)
	// Two flows on different layers cannot share links.
	n.SendSPUToSPU(mem.SPUID{Layer: 0, Bank: 0, SPU: 14}, mem.SPUID{Layer: 0, Bank: 1, SPU: 14}, 50)
	d1 := n.DrainNs()
	n.SendSPUToSPU(mem.SPUID{Layer: 1, Bank: 0, SPU: 14}, mem.SPUID{Layer: 1, Bank: 1, SPU: 14}, 50)
	if d2 := n.DrainNs(); d2 != d1 {
		t.Fatalf("disjoint flows contended: %v -> %v", d1, d2)
	}
}

func TestZeroPacketsIsNoOp(t *testing.T) {
	n := newNet(t)
	n.SendSPUToSPU(mem.SPUID{Layer: 0, Bank: 0, SPU: 0}, mem.SPUID{Layer: 1, Bank: 1, SPU: 1}, 0)
	n.BroadcastFromLogic(0)
	if n.DrainNs() != 0 || n.Packets() != 0 || n.HopWords() != 0 {
		t.Fatal("zero-packet send charged traffic")
	}
}

func TestBroadcastChargesEverything(t *testing.T) {
	n := newNet(t)
	n.BroadcastFromLogic(10)
	g := mem.DefaultGeometry()
	if n.TSVWords() != 10*int64(g.Vaults) {
		t.Fatalf("TSV words = %d", n.TSVWords())
	}
	if n.HopWords() != 10*int64(g.Layers*g.BanksPerLayer) {
		t.Fatalf("hop words = %d", n.HopWords())
	}
	if n.DrainNs() <= 0 {
		t.Fatal("broadcast charged no time")
	}
}

func TestResetClears(t *testing.T) {
	n := newNet(t)
	n.SendSPUToSPU(mem.SPUID{Layer: 0, Bank: 0, SPU: 0}, mem.SPUID{Layer: 3, Bank: 40, SPU: 7}, 25)
	n.SendToLogic(mem.SPUID{Layer: 2, Bank: 8, SPU: 4}, 5)
	if n.Packets() != 30 {
		t.Fatalf("packets = %d, want 30", n.Packets())
	}
	n.Reset()
	if n.DrainNs() != 0 || n.Packets() != 0 || n.HopWords() != 0 || n.TSVWords() != 0 {
		t.Fatalf("reset left state: %s", n.String())
	}
}

func TestSendToLogicCountsTSV(t *testing.T) {
	n := newNet(t)
	n.SendToLogic(mem.SPUID{Layer: 3, Bank: 0, SPU: 0}, 7)
	if n.TSVWords() != 7*4 {
		t.Fatalf("TSV words = %d, want 28", n.TSVWords())
	}
}

func TestQuickRouteSymmetricHopCount(t *testing.T) {
	g := mem.DefaultGeometry()
	n := newNet(t)
	f := func(l1, b1, s1, l2, b2, s2 uint8) bool {
		src := mem.SPUID{Layer: int(l1) % g.Layers, Bank: int(b1) % g.BanksPerLayer, SPU: int(s1) % g.SPUsPerBank()}
		dst := mem.SPUID{Layer: int(l2) % g.Layers, Bank: int(b2) % g.BanksPerLayer, SPU: int(s2) % g.SPUsPerBank()}
		a := n.RouteSPUToSPU(src, dst)
		b := n.RouteSPUToSPU(dst, src)
		return a.RingHops == b.RingHops && a.TSVHops == b.TSVHops && a.Hops() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDrainNeverDecreasesOnSend(t *testing.T) {
	g := mem.DefaultGeometry()
	n := newNet(t)
	rng := rand.New(rand.NewSource(5))
	prev := 0.0
	for i := 0; i < 200; i++ {
		src := mem.SPUID{Layer: rng.Intn(g.Layers), Bank: rng.Intn(g.BanksPerLayer), SPU: rng.Intn(g.SPUsPerBank())}
		dst := mem.SPUID{Layer: rng.Intn(g.Layers), Bank: rng.Intn(g.BanksPerLayer), SPU: rng.Intn(g.SPUsPerBank())}
		n.SendSPUToSPU(src, dst, int64(rng.Intn(5)))
		if n.DrainNs() < prev {
			t.Fatalf("drain decreased at %d", i)
		}
		prev = n.DrainNs()
	}
}

func TestSameBankSendChargesOnlyLine(t *testing.T) {
	n := newNet(t)
	src := mem.SPUID{Layer: 2, Bank: 7, SPU: 3}
	dst := mem.SPUID{Layer: 2, Bank: 7, SPU: 9}
	r := n.SendSPUToSPU(src, dst, 10)
	if r.RingHops != 0 || r.TSVHops != 0 {
		t.Fatalf("same-bank route used ring/TSV: %+v", r)
	}
	if n.TSVWords() != 0 {
		t.Fatalf("same-bank send charged TSVs: %d", n.TSVWords())
	}
	if n.HopWords() != 10*int64(r.LineHops) {
		t.Fatalf("hop words = %d, want %d", n.HopWords(), 10*int64(r.LineHops))
	}
}

func TestCrossLayerSendChargesTSV(t *testing.T) {
	n := newNet(t)
	src := mem.SPUID{Layer: 0, Bank: 3, SPU: 15}
	dst := mem.SPUID{Layer: 5, Bank: 3, SPU: 15}
	n.SendSPUToSPU(src, dst, 4)
	if n.TSVWords() != 4*5 {
		t.Fatalf("TSV words = %d, want 20", n.TSVWords())
	}
}

// Per-link word counters (telemetry layer).

func TestRingSegmentWordsFollowShortestArc(t *testing.T) {
	n := newNet(t)
	g := mem.DefaultGeometry()
	disp := n.DispatcherPos()
	// Dispatcher-to-dispatcher so the route has no line hops: every hop word
	// must land on a ring segment.
	src := mem.SPUID{Layer: 2, Bank: 0, SPU: disp}
	dst := mem.SPUID{Layer: 2, Bank: 3, SPU: disp}
	r := n.SendSPUToSPU(src, dst, 25)

	words := n.RingSegmentWords()
	base := 2 * g.BanksPerLayer
	for s := 0; s < g.BanksPerLayer; s++ {
		want := int64(0)
		if s < 3 { // segments 0,1,2 join banks 0-1, 1-2, 2-3
			want = 25
		}
		if words[base+s] != want {
			t.Errorf("layer 2 segment %d carries %d words, want %d", s, words[base+s], want)
		}
	}
	// Other layers stay untouched, and the per-segment counts must sum to
	// the energy accounting's packet x ring-hop product.
	var sum int64
	for i, v := range words {
		sum += v
		if v != 0 && i/g.BanksPerLayer != 2 {
			t.Errorf("segment %d outside layer 2 carries %d words", i, v)
		}
	}
	if want := 25 * int64(r.RingHops); sum != want {
		t.Errorf("ring words sum %d, want %d", sum, want)
	}
	for v, w := range n.TSVVaultWords() {
		if w != 0 {
			t.Errorf("same-layer send charged TSV vault %d with %d words", v, w)
		}
	}
}

func TestTSVVaultWordsCountPacketsOnce(t *testing.T) {
	n := newNet(t)
	g := mem.DefaultGeometry()
	src := mem.SPUID{Layer: 0, Bank: 5, SPU: n.DispatcherPos()}
	dst := mem.SPUID{Layer: 7, Bank: 5, SPU: n.DispatcherPos()}
	r := n.SendSPUToSPU(src, dst, 11)
	if r.TSVHops != 7 {
		t.Fatalf("route = %+v, want 7 TSV hops", r)
	}
	for v, w := range n.TSVVaultWords() {
		want := int64(0)
		if v == g.VaultOf(5) {
			want = 11 // once per packet, not 11 x 7 layer crossings
		}
		if w != want {
			t.Errorf("vault %d carries %d words, want %d", v, w, want)
		}
	}
	if n.TSVWords() != 11*7 {
		t.Errorf("energy-weighted TSV words = %d, want 77", n.TSVWords())
	}
}

func TestBroadcastFillsEveryLinkCounter(t *testing.T) {
	n := newNet(t)
	n.BroadcastFromLogic(9)
	for i, w := range n.RingSegmentWords() {
		if w != 9 {
			t.Fatalf("ring segment %d carries %d words after broadcast, want 9", i, w)
		}
	}
	for v, w := range n.TSVVaultWords() {
		if w != 9 {
			t.Fatalf("TSV vault %d carries %d words after broadcast, want 9", v, w)
		}
	}
}

func TestResetClearsLinkWordCounters(t *testing.T) {
	n := newNet(t)
	n.BroadcastFromLogic(3)
	n.SendSPUToSPU(mem.SPUID{Layer: 0, Bank: 0, SPU: 0}, mem.SPUID{Layer: 3, Bank: 9, SPU: 2}, 4)
	n.Reset()
	for i, w := range n.RingSegmentWords() {
		if w != 0 {
			t.Fatalf("Reset left %d words on ring segment %d", w, i)
		}
	}
	for v, w := range n.TSVVaultWords() {
		if w != 0 {
			t.Fatalf("Reset left %d words on TSV vault %d", w, v)
		}
	}
}
