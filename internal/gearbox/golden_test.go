package gearbox

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// longActivationGolden pins the digest of a two-iteration run driven by a
// frontier whose long part is unsorted and holds a duplicate long index, per
// Table 4 version. The values were captured from the map-backed fragment
// layout; any change to the order in which step 3 folds long fragments (or
// to what the first iteration emits) changes the float bits and the digest.
var longActivationGolden = map[string]uint64{
	"HypoV2": 0x0b6f8c4ef997d58b,
	"V2":     0x3de96537e59a5ce2,
	"V3":     0xb7549603ac8b3f2d,
}

// digestIteration folds one iteration's statistics and returned frontier
// into h. IterStats prints with %v, whose float formatting is the shortest
// representation that round-trips, so the text is bit-exact; frontier values
// are hashed as raw bits.
func digestIteration(h hash.Hash64, st IterStats, next *Frontier) {
	fmt.Fprintf(h, "%+v\n", st)
	var buf [8]byte
	put := func(es []FrontierEntry) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(es)))
		h.Write(buf[:4])
		for _, e := range es {
			binary.LittleEndian.PutUint32(buf[:4], uint32(e.Index))
			binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(e.Value))
			h.Write(buf[:])
		}
	}
	put(next.Long)
	for _, l := range next.Local {
		put(l)
	}
}

// TestLongActivationOrderGolden feeds Iterate a long frontier in the order
// a caller may build it — unsorted, with one long column activated twice,
// and with non-integer plus-times values so float fold order is observable —
// and checks the run against a captured digest at Workers 1 and 4.
func TestLongActivationOrderGolden(t *testing.T) {
	m := testMatrix(t, 29)
	cfgs := map[string]partition.Config{
		"HypoV2": {Scheme: partition.HypoLogicLayer, Placement: partition.Shuffled, LongFrac: 0.05, Seed: 3},
		"V2":     {Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.05, Seed: 3},
		"V3":     {Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.05, Replicate: true, Seed: 3},
	}
	for _, name := range []string{"HypoV2", "V2", "V3"} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				mach := machineWithWorkers(t, m, cfgs[name], semiring.PlusTimes{}, workers, nil)
				last := mach.Plan().LastLong
				if last < 4 {
					t.Fatalf("plan has %d long columns, want at least 5", last+1)
				}
				// Long activations out of order, one repeated, interleaved
				// with short ones; DistributeFrontier keeps the given order.
				entries := []FrontierEntry{
					{Index: last, Value: 0.37},
					{Index: last + 3, Value: 1.21},
					{Index: 2, Value: 0.113},
					{Index: last / 2, Value: 2.71},
					{Index: last + 17, Value: 0.59},
					{Index: 2, Value: 0.87},
					{Index: 0, Value: 1.618},
					{Index: last - 1, Value: 0.0271},
				}
				h := fnv.New64a()
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				for it := 0; it < 2; it++ {
					next, st, err := mach.Iterate(f, IterateOptions{})
					if err != nil {
						t.Fatal(err)
					}
					digestIteration(h, st, next)
					f = next
				}
				if got, want := h.Sum64(), longActivationGolden[name]; got != want {
					t.Fatalf("Workers=%d: digest %#x, want %#x", workers, got, want)
				}
			}
		})
	}
}
