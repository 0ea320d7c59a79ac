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
	"gearbox/internal/telemetry"
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

// iterateGolden pins the digests of the runs the serial engine is fenced by:
// chained runs and the V3 replica reduction (digestRun) and spatial
// telemetry snapshots (digestTelemetry). They were captured from the
// worker-pool engine the serial one replaced, on which Workers 1 and 4
// produced these same digests; any change to a fold order, a float sum or
// an event count changes them. "v3-reduction" is the exception: it was
// re-captured from the serial engine when its frontier switched from
// all-ones to non-integer values.
var iterateGolden = map[string]uint64{
	"V1/plustimes-random":     0x0bde6ddcd7b5292a,
	"V1/minplus-sources":      0xa33d8560d9e1dfca,
	"HypoV2/plustimes-random": 0x793b34163dde4b64,
	"HypoV2/minplus-sources":  0xf79ac11620edde62,
	"V2/plustimes-random":     0x026a7d38dd69888e,
	"V2/minplus-sources":      0xc33c1e62bf19c7db,
	"V3/plustimes-random":     0x243962e7a8456cae,
	"V3/minplus-sources":      0xfb015ac04e15aeed,
	"error-injection":         0x540a563efa77ce49,
	"v3-reduction":            0x9ce157917228ecfc,
	"telemetry/V1":            0x5a33bf3fb6aae417,
	"telemetry/HypoV2":        0x6db713a33daa63a5,
	"telemetry/V2":            0x1feed3a0d53f087e,
	"telemetry/V3":            0xf7568d23c20255d1,

	// The bool-or-and and min-first runs of goldenInputs, captured from the
	// engine that still called every ⊗, ⊕ and clean check through the
	// semiring.Semiring interface.
	"V1/boolorand-sources":     0x02fee58c8457a643,
	"V1/minfirst-labels":       0x94e7b15bf6ac79ef,
	"HypoV2/boolorand-sources": 0x7a8c6997275aa45c,
	"HypoV2/minfirst-labels":   0x12080acb34562d97,
	"V2/boolorand-sources":     0xff04d077b1fa7d06,
	"V2/minfirst-labels":       0xad13c9c217e7a0c8,
	"V3/boolorand-sources":     0x01529dfc635b7948,
	"V3/minfirst-labels":       0xe0338c611eacfb24,
}

// checkGolden fails t unless got is the iterateGolden digest for key.
func checkGolden(t *testing.T, key string, got uint64) {
	t.Helper()
	want, ok := iterateGolden[key]
	if !ok {
		t.Fatalf("no golden digest for %q", key)
	}
	if got != want {
		t.Fatalf("%s: digest %#016x, want %#016x", key, got, want)
	}
}

// digestRun digests a run: every iteration's statistics and returned
// frontier, then the machine's simulated clock and injected flip count.
func digestRun(mach *Machine, stats []IterStats, frontiers []*Frontier) uint64 {
	h := fnv.New64a()
	for i := range stats {
		digestIteration(h, stats[i], frontiers[i])
	}
	fmt.Fprintf(h, "now=%v injected=%d\n", mach.NowNs(), mach.ErrorsInjected())
	return h.Sum64()
}

// digestTelemetry digests a spatial telemetry snapshot. %+v prints every
// float in its shortest round-tripping form, so the text is bit-exact.
func digestTelemetry(sp *telemetry.SpatialStats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", sp)
	return h.Sum64()
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
// and checks the run against a captured digest.
func TestLongActivationOrderGolden(t *testing.T) {
	m := testMatrix(t, 29)
	cfgs := map[string]partition.Config{
		"HypoV2": {Scheme: partition.HypoLogicLayer, Placement: partition.Shuffled, LongFrac: 0.05, Seed: 3},
		"V2":     {Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.05, Seed: 3},
		"V3":     {Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.05, Replicate: true, Seed: 3},
	}
	for _, name := range []string{"HypoV2", "V2", "V3"} {
		t.Run(name, func(t *testing.T) {
			mach := buildMachine(t, m, cfgs[name], semiring.PlusTimes{})
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
				t.Fatalf("digest %#x, want %#x", got, want)
			}
		})
	}
}
