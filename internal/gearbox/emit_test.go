package gearbox

import (
	"math/rand"
	"slices"
	"testing"

	"gearbox/internal/partition"
	"gearbox/internal/semiring"
)

// retile replaces plan's short-region ownership with plan.NumSPUs random
// contiguous ranges in ascending SPU order. The first and last SPUs get
// zero-length ranges and a few cut points repeat, so empty ranges appear
// at the ends and in the middle; the other cut points fall anywhere, so
// ranges start and end inside 64-bit bitmap words and span several words.
func retile(plan *partition.Plan, rng *rand.Rand) {
	first, n := plan.LastLong+1, plan.Matrix.NumRows
	cuts := make([]int32, plan.NumSPUs+1)
	cuts[0], cuts[1] = first, first
	cuts[plan.NumSPUs-1], cuts[plan.NumSPUs] = n, n
	for k := 2; k < plan.NumSPUs-1; k++ {
		cuts[k] = first + rng.Int31n(n-first+1)
		if k%4 == 0 {
			cuts[k] = cuts[k-1] // repeated below once sorted: an empty range
		}
	}
	slices.Sort(cuts)
	for k := range plan.Ranges {
		plan.Ranges[k] = partition.Range{First: cuts[k], Last: cuts[k+1] - 1}
		for v := cuts[k]; v < cuts[k+1]; v++ {
			plan.OwnerOf[v] = int32(k)
		}
	}
}

// bitmapClear reports whether the machine's dirty bitmap is all zero.
func bitmapClear(m *Machine) bool {
	for _, w := range m.dirtyBits {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestStep6EmitBitmap drives step 6's bitmap emission with random dirty
// sets: slots marked twice, slots marked but accumulated back to the clean
// value, and SPU ranges that are empty or cross bitmap word boundaries.
// Every bucket must equal the sort-and-dedup reference of the non-clean
// marked slots its SPU owns, appended in SPU order after what dst already
// holds, each SPU must be charged only for its own entries, and the walk
// must leave the bitmap and the emitted output slots clean.
func TestStep6EmitBitmap(t *testing.T) {
	m := testMatrix(t, 41)
	for _, sem := range []semiring.Semiring{semiring.PlusTimes{}, semiring.MinPlus{}} {
		t.Run(sem.Name(), func(t *testing.T) {
			plan, err := partition.Build(m, smallGeo(), partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.02, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			retile(plan, rng)
			mach, err := New(plan, sem, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			clean := sem.Zero()
			first, n := plan.LastLong+1, plan.Matrix.NumRows
			for trial := 0; trial < 40; trial++ {
				want := make([][]FrontierEntry, plan.NumSPUs)
				var marked []int32
				for i, cnt := 0, rng.Intn(int(n-first)); i < cnt; i++ {
					marked = append(marked, first+rng.Int31n(n-first))
				}
				slices.Sort(marked)
				marked = slices.Compact(marked)
				for _, v := range marked {
					if rng.Intn(5) == 0 {
						mach.output[v] = clean // accumulated back to clean
					} else {
						mach.output[v] = float32(rng.Intn(100)) + 0.5
						k := plan.OwnerOf[v]
						want[k] = append(want[k], FrontierEntry{Index: v, Value: mach.output[v]})
					}
				}
				// Mark in random order, some slots twice.
				rng.Shuffle(len(marked), func(i, j int) { marked[i], marked[j] = marked[j], marked[i] })
				for i, v := range marked {
					mach.markDirty(v)
					if i%3 == 0 {
						mach.markDirty(v)
					}
				}

				// Entries already in dst stay ahead of the emitted ones.
				prefix := []FrontierEntry{{Index: -1, Value: 9}}
				clear(mach.busy)
				var st IterStats
				var ev Events
				got := mach.step6Emit(prefix, &st, &ev)
				if got[0] != prefix[0] {
					t.Fatalf("trial %d: emission overwrote dst's prefix: %v", trial, got[0])
				}
				got = got[1:]

				var flat []FrontierEntry
				for k, w := range want {
					flat = append(flat, w...)
					// Every SPU is charged for exactly its own entries.
					if charged := mach.busy[k] > 0; charged != (len(w) > 0) {
						t.Fatalf("trial %d: SPU %d busy %v for %d emitted entries", trial, k, mach.busy[k], len(w))
					}
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Index >= got[i].Index {
						t.Fatalf("trial %d: emission not strictly ascending at %d: %v", trial, i, got)
					}
				}
				if !slices.Equal(got, flat) {
					t.Fatalf("trial %d: emitted %v, want %v", trial, got, flat)
				}
				if st.FrontierOut != int64(len(got)) {
					t.Fatalf("trial %d: FrontierOut %d, emitted %d", trial, st.FrontierOut, len(got))
				}
				if !bitmapClear(mach) {
					t.Fatalf("trial %d: bitmap not clear after emission", trial)
				}
				for v, x := range mach.output {
					if x != clean {
						t.Fatalf("trial %d: output[%d] = %v after emission, want clean", trial, v, x)
					}
				}
			}
		})
	}
}

// TestDirtyBitmapClearAfterIterateAndReset checks that every Iterate hands
// the bitmap back all zero, for every Table 4 version on a chain with a
// dense apply, and that ResetForRun clears bits an interrupted iteration
// left behind.
func TestDirtyBitmapClearAfterIterateAndReset(t *testing.T) {
	m := testMatrix(t, 42)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			entries := randomFrontier(m.NumRows, 60, 3)
			y := make([]float32, m.NumRows)
			for i := range y {
				y[i] = 1
			}
			for it := 0; it < 3; it++ {
				opts := IterateOptions{}
				if it == 1 {
					opts.Apply = &ApplySpec{Alpha: 1, Y: y}
				}
				next, _, err := mach.Iterate(nil, entries, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bitmapClear(mach) {
					t.Fatalf("iteration %d left dirty bits set", it)
				}
				entries = next
			}
			for v := mach.plan.LastLong + 1; v < m.NumRows; v += 7 {
				mach.markDirty(v)
			}
			mach.ResetForRun(nil)
			if !bitmapClear(mach) {
				t.Fatal("ResetForRun left dirty bits set")
			}
		})
	}
}
