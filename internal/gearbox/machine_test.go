package gearbox

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// smallGeo: 1 layer x 4 banks x 8 subarrays => 12 compute SPUs.
func smallGeo() mem.Geometry {
	return mem.Geometry{
		Vaults: 2, Layers: 1, BanksPerLayer: 4, SubarraysPerBank: 8,
		RowBytes: 256, WordBytes: 4, SubarrayRows: 512,
	}
}

func smallConfig() Config {
	return Config{Geo: smallGeo(), Tim: mem.DefaultTiming(), DispatchBufferPairs: 1024}
}

func buildMachine(t *testing.T, m *sparse.CSC, pcfg partition.Config, sem semiring.Semiring) *Machine {
	t.Helper()
	return buildMachineWith(t, m, pcfg, sem, nil)
}

// buildMachineWith is buildMachine with mutate, when non-nil, applied to
// the machine Config first.
func buildMachineWith(t *testing.T, m *sparse.CSC, pcfg partition.Config, sem semiring.Semiring, mutate func(*Config)) *Machine {
	t.Helper()
	plan, err := partition.Build(m, smallGeo(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	mach, err := New(plan, sem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

func testMatrix(t *testing.T, seed int64) *sparse.CSC {
	t.Helper()
	m, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, A: 0.6, B: 0.17, C: 0.17, Noise: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refSpMSpV computes one column-oriented SpMSpV iteration over a semiring:
// the golden model the simulator must match bit-for-bit on integer data.
func refSpMSpV(m *sparse.CSC, sem semiring.Semiring, entries []FrontierEntry) map[int32]float32 {
	out := map[int32]float32{}
	for _, e := range entries {
		rows, vals := m.Col(e.Index)
		for i, r := range rows.All() {
			old, ok := out[r]
			if !ok {
				old = sem.Zero()
			}
			out[r] = sem.Add(old, sem.Mul(vals[i], e.Value))
		}
	}
	for r, v := range out {
		if sem.IsZero(v) {
			delete(out, r)
		}
	}
	return out
}

func randomFrontier(n int32, nnz int, seed int64) []FrontierEntry {
	idx, vals := gen.SparseVector(n, nnz, seed)
	out := make([]FrontierEntry, len(idx))
	for i := range idx {
		out[i] = FrontierEntry{Index: idx[i], Value: vals[i]}
	}
	return out
}

func checkAgainstReference(t *testing.T, mach *Machine, entries []FrontierEntry) IterStats {
	t.Helper()
	got, st, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := refSpMSpV(mach.Plan().Matrix, mach.Semiring(), entries)
	if len(got) != len(want) {
		t.Fatalf("frontier size %d, want %d", len(got), len(want))
	}
	for _, e := range got {
		if w, ok := want[e.Index]; !ok || w != e.Value {
			t.Fatalf("output[%d] = %v, want %v (present=%v)", e.Index, e.Value, w, ok)
		}
	}
	return st
}

func TestIterateMatchesReferenceAllSchemes(t *testing.T) {
	m := testMatrix(t, 1)
	cases := []struct {
		name string
		cfg  partition.Config
	}{
		{"V1-column-oriented", partition.Config{Scheme: partition.ColumnOriented, Placement: partition.Shuffled, Seed: 1}},
		{"V2-hybrid", partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.01, Seed: 1}},
		{"V3-hybrid-replicated", partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.01, Replicate: true, Seed: 1}},
		{"HypoV2", partition.Config{Scheme: partition.HypoLogicLayer, Placement: partition.Shuffled, LongFrac: 0.01, Seed: 1}},
	}
	entries := randomFrontier(m.NumRows, 40, 7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mach := buildMachine(t, m, tc.cfg, semiring.PlusTimes{})
			checkAgainstReference(t, mach, entries)
		})
	}
}

func TestIterateMatchesReferenceMinPlus(t *testing.T) {
	m := testMatrix(t, 2)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.01
	mach := buildMachine(t, m, cfg, semiring.MinPlus{})
	checkAgainstReference(t, mach, randomFrontier(m.NumRows, 30, 9))
}

func TestIterateMatchesReferenceBool(t *testing.T) {
	m := testMatrix(t, 3)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.01
	mach := buildMachine(t, m, cfg, semiring.BoolOrAnd{})
	entries := randomFrontier(m.NumRows, 25, 11)
	for i := range entries {
		entries[i].Value = 1
	}
	checkAgainstReference(t, mach, entries)
}

func TestMultiIterationPropagation(t *testing.T) {
	// Three chained iterations must equal three chained reference SpMSpVs.
	m := testMatrix(t, 4)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.005
	mach := buildMachine(t, m, cfg, semiring.BoolOrAnd{})

	entries := []FrontierEntry{{Index: m.NumRows / 2, Value: 1}}
	for iter := 0; iter < 3; iter++ {
		want := refSpMSpV(mach.Plan().Matrix, mach.Semiring(), entries)
		got, _, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: frontier size %d, want %d", iter, len(got), len(want))
		}
		for _, e := range got {
			if want[e.Index] != e.Value {
				t.Fatalf("iter %d: output[%d] = %v, want %v", iter, e.Index, e.Value, want[e.Index])
			}
		}
		entries = got
	}
}

func TestApplyDense(t *testing.T) {
	m := testMatrix(t, 5)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.01
	mach := buildMachine(t, m, cfg, semiring.PlusTimes{})

	entries := randomFrontier(m.NumRows, 20, 3)
	y := make([]float32, m.NumRows)
	for i := range y {
		y[i] = 1
	}
	got, _, err := mach.Iterate(nil, entries, IterateOptions{Apply: &ApplySpec{Alpha: 2, Y: y}})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: accumulate then add 2 everywhere -> every slot non-clean.
	want := refSpMSpV(mach.Plan().Matrix, mach.Semiring(), entries)
	if int32(len(got)) != m.NumRows {
		t.Fatalf("dense apply produced %d entries, want %d", len(got), m.NumRows)
	}
	for _, e := range got {
		w := want[e.Index] + 2
		if e.Value != w {
			t.Fatalf("output[%d] = %v, want %v", e.Index, e.Value, w)
		}
	}
}

func TestApplyRejectsWrongLength(t *testing.T) {
	m := testMatrix(t, 6)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	if _, _, err := mach.Iterate(nil, nil, IterateOptions{Apply: &ApplySpec{Alpha: 1, Y: []float32{1}}}); err == nil {
		t.Fatal("short apply vector accepted")
	}
}

// TestDistributeFrontierRouting: step 1 routes a long activator to the
// logic layer's list and a short one to its owner SPU, and the returned
// frontier is strictly ascending and equals the reference.
func TestDistributeFrontierRouting(t *testing.T) {
	m := testMatrix(t, 7)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.01
	mach := buildMachine(t, m, cfg, semiring.PlusTimes{})
	plan := mach.Plan()
	if plan.LastLong < 0 {
		t.Skip("no long region")
	}
	entries := []FrontierEntry{
		{Index: plan.LastLong + 1, Value: 2}, // short, first owner
		{Index: 0, Value: 1},                 // long
	}
	got, _, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mach.fLong) != 1 || mach.fLong[0] != entries[1] {
		t.Fatalf("long routing wrong: %+v", mach.fLong)
	}
	owner := plan.OwnerOf[plan.LastLong+1]
	if own := mach.fShort[mach.fStart[owner]:mach.fStart[owner+1]]; len(own) != 1 || own[0] != entries[0] {
		t.Fatalf("short entry not at owner %d: %+v", owner, own)
	}
	if len(mach.fShort) != 1 {
		t.Fatalf("short split holds %d entries, want 1", len(mach.fShort))
	}
	want := refSpMSpV(plan.Matrix, mach.Semiring(), entries)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("frontier size %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if i > 0 && got[i-1].Index >= e.Index {
			t.Fatalf("frontier not strictly ascending at %d: %v", i, got)
		}
		if w, ok := want[e.Index]; !ok || w != e.Value {
			t.Fatalf("output[%d] = %v, want %v (present=%v)", e.Index, e.Value, w, ok)
		}
	}
}

// TestIterateRejectsOutOfRangeIndex: an index outside the matrix fails the
// iteration before any machine state changes, so the next valid Iterate is
// bit-identical — frontier, statistics, clock and telemetry — to the same
// iteration on a fresh machine.
func TestIterateRejectsOutOfRangeIndex(t *testing.T) {
	m := testMatrix(t, 8)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			valid := randomFrontier(m.NumRows, 40, 5)
			run := func(mach *Machine) ([]FrontierEntry, IterStats) {
				t.Helper()
				next, st, err := mach.Iterate(nil, valid, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return next, st
			}
			fresh := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			freshSink := attachSpatial(fresh)
			wantOut, wantSt := run(fresh)

			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			sink := attachSpatial(mach)
			for _, bad := range []int32{m.NumRows, -1} {
				// Valid long and short entries precede the bad one.
				in := append(append([]FrontierEntry(nil), valid...), FrontierEntry{Index: bad, Value: 1})
				if _, _, err := mach.Iterate(nil, in, IterateOptions{}); err == nil {
					t.Fatalf("index %d accepted", bad)
				}
			}
			gotOut, gotSt := run(mach)
			if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatal("iteration after a rejected frontier differs from a fresh machine's")
			}
			if mach.NowNs() != fresh.NowNs() {
				t.Fatalf("clock %v after a rejected frontier, fresh machine %v", mach.NowNs(), fresh.NowNs())
			}
			if !reflect.DeepEqual(sink, freshSink) {
				t.Fatal("telemetry after a rejected frontier differs from a fresh machine's")
			}
		})
	}
}

// TestIterateDstMayShareInput: step 1 consumes the input before step 6
// appends to dst, so one buffer serving as both gives the same chain as
// separate buffers, including when a long, unsorted input with duplicates
// leaves room for the whole output in place. The machine keeps no
// reference to a returned slice, so the separate-buffer results, held
// uncopied, are untouched by the later iterations.
func TestIterateDstMayShareInput(t *testing.T) {
	m := testMatrix(t, 9)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			start := randomFrontier(m.NumRows, 60, 11)
			slices.Reverse(start)
			start = append(start, start[:10]...)
			chain := func(shared bool) ([][]FrontierEntry, []IterStats) {
				mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
				buf := make([]FrontierEntry, len(start), int(m.NumRows))
				copy(buf, start)
				var outs [][]FrontierEntry
				var stats []IterStats
				for it := 0; it < 3 && len(buf) > 0; it++ {
					var dst []FrontierEntry
					if shared {
						dst = buf[:0]
					}
					next, st, err := mach.Iterate(dst, buf, IterateOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if shared && len(next) > 0 && &next[0] != &buf[:1][0] {
						t.Fatal("shared buffer was reallocated; the test no longer aliases dst and in")
					}
					held := next
					if shared {
						held = append([]FrontierEntry(nil), next...) // buf is reused next iteration
					}
					outs = append(outs, held)
					stats = append(stats, st)
					buf = next
				}
				return outs, stats
			}
			wantOut, wantSt := chain(false)
			gotOut, gotSt := chain(true)
			if len(wantOut) < 2 {
				t.Fatalf("chain ran %d iterations, want at least 2", len(wantOut))
			}
			if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatal("dst sharing in's backing array changed the result")
			}
		})
	}
}

func TestHybridReducesRemoteAccumulations(t *testing.T) {
	// The paper's core claim (Fig. 2): hybrid partitioning removes the
	// remote accumulations long columns cause under naive column
	// partitioning.
	m, err := gen.RMAT(gen.RMATConfig{Scale: 11, EdgeFactor: 12, A: 0.65, B: 0.15, C: 0.15, Noise: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Dense frontier: activates the long columns, whose load imbalance and
	// remote accumulations are what hybrid partitioning fixes.
	entries := make([]FrontierEntry, m.NumRows)
	for i := range entries {
		entries[i] = FrontierEntry{Index: int32(i), Value: 1}
	}

	v1 := buildMachine(t, m, partition.Config{Scheme: partition.ColumnOriented, Placement: partition.Shuffled, Seed: 1}, semiring.PlusTimes{})
	_, st1, err := v1.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cfgV3 := partition.Config{Scheme: partition.Hybrid, Placement: partition.Shuffled, LongFrac: 0.01, Replicate: true, Seed: 1}
	v3 := buildMachine(t, m, cfgV3, semiring.PlusTimes{})
	_, st3, err := v3.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if st3.RemoteAccums >= st1.RemoteAccums {
		t.Fatalf("hybrid remote accums %d >= column-oriented %d", st3.RemoteAccums, st1.RemoteAccums)
	}
	if st3.TimeNs() >= st1.TimeNs() {
		t.Fatalf("hybrid time %.0fns >= column-oriented %.0fns", st3.TimeNs(), st1.TimeNs())
	}
}

func TestStallRoundsWithTinyBuffer(t *testing.T) {
	m := testMatrix(t, 9)
	plan, err := partition.Build(m, smallGeo(), partition.Config{Scheme: partition.ColumnOriented, Placement: partition.Shuffled, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.DispatchBufferPairs = 4
	mach, err := New(plan, semiring.PlusTimes{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := randomFrontier(m.NumRows, 60, 5)
	_, st, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps[3].StallRounds <= 1 {
		t.Fatal("4-pair buffer did not trigger §6 stall rounds")
	}
}

func TestStepTimesPositiveAndStructured(t *testing.T) {
	m := testMatrix(t, 10)
	cfg := partition.DefaultConfig()
	cfg.LongFrac = 0.01
	mach := buildMachine(t, m, cfg, semiring.PlusTimes{})
	entries := randomFrontier(m.NumRows, 50, 13)
	_, st, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range st.Steps {
		if s.TimeNs <= 0 || math.IsNaN(s.TimeNs) {
			t.Fatalf("step %d time = %v", i+1, s.TimeNs)
		}
	}
	// LocalAccumulations dominates for this workload (Fig. 14a shape).
	if st.Steps[2].TimeNs < st.Steps[0].TimeNs {
		t.Fatalf("step3 (%.0fns) should outweigh step1 (%.0fns)", st.Steps[2].TimeNs, st.Steps[0].TimeNs)
	}
	if st.ProcessedNNZ == 0 || st.LocalAccums == 0 {
		t.Fatalf("no work recorded: %+v", st)
	}
	ev := st.EventsTotal()
	if ev.SPUInstrs == 0 || ev.RandRowActs == 0 {
		t.Fatalf("no events recorded: %+v", ev)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	m := testMatrix(t, 11)
	plan, err := partition.Build(m, smallGeo(), partition.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := smallConfig()
	bad.DispatchBufferPairs = 0
	if _, err := New(plan, semiring.PlusTimes{}, bad); err == nil {
		t.Fatal("zero buffer accepted")
	}
	other := smallConfig()
	other.Geo = mem.DefaultGeometry()
	if _, err := New(plan, semiring.PlusTimes{}, other); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestEmptyFrontierIsCheap(t *testing.T) {
	m := testMatrix(t, 12)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	next, st, err := mach.Iterate(nil, nil, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 0 {
		t.Fatalf("empty frontier produced %d outputs", len(next))
	}
	if st.ProcessedNNZ != 0 {
		t.Fatalf("empty frontier processed %d nnz", st.ProcessedNNZ)
	}
}

// TestQuickAllSchemesMatchReference fuzzes matrices, frontiers, semirings
// and schemes; the simulator must agree with the reference exactly
// (integer-valued data keeps float32 arithmetic exact).
func TestQuickAllSchemesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := gen.RMAT(gen.RMATConfig{Scale: 7 + rng.Intn(2), EdgeFactor: 4 + rng.Float64()*6,
			A: 0.55, B: 0.2, C: 0.2, Noise: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		cfg := partition.Config{
			Scheme:    partition.Scheme(rng.Intn(3)),
			Placement: partition.Placement(rng.Intn(5)),
			LongFrac:  rng.Float64() * 0.02,
			Replicate: rng.Intn(2) == 0,
			Seed:      seed,
		}
		var sem semiring.Semiring
		switch rng.Intn(3) {
		case 0:
			sem = semiring.PlusTimes{}
		case 1:
			sem = semiring.MinPlus{}
		default:
			sem = semiring.BoolOrAnd{}
		}
		plan, err := partition.Build(m, smallGeo(), cfg)
		if err != nil {
			return false
		}
		mach, err := New(plan, sem, smallConfig())
		if err != nil {
			return false
		}
		entries := randomFrontier(m.NumRows, 1+rng.Intn(50), seed)
		if _, ok := sem.(semiring.BoolOrAnd); ok {
			for i := range entries {
				entries[i].Value = 1
			}
		}
		got, _, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			return false
		}
		want := refSpMSpV(plan.Matrix, sem, entries)
		if len(got) != len(want) {
			return false
		}
		for _, e := range got {
			if want[e.Index] != e.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineTimelineMatchesStepTimes(t *testing.T) {
	m := testMatrix(t, 13)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	var names []string
	var times []float64
	mach.SetTrace(func(name string, at float64) {
		names = append(names, name)
		times = append(times, at)
	})
	before := mach.NowNs()
	_, st, err := mach.Iterate(nil, randomFrontier(m.NumRows, 30, 3), IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("trace saw %d events, want 6 steps", len(names))
	}
	if names[0] != "step1-frontier-distribution" || names[5] != "step6-applying" {
		t.Fatalf("trace order: %v", names)
	}
	// The clock advances by exactly the iteration's total time.
	if got, want := mach.NowNs()-before, st.TimeNs(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("clock advanced %.3f, want %.3f", got, want)
	}
	// Each event lands at the cumulative step boundary.
	cum := before
	for i := 0; i < 6; i++ {
		cum += st.Steps[i].TimeNs
		if math.Abs(times[i]-cum) > 1e-6 {
			t.Fatalf("step %d completion at %.3f, want %.3f", i+1, times[i], cum)
		}
	}
}

func TestClockAccumulatesAcrossIterations(t *testing.T) {
	m := testMatrix(t, 14)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.BoolOrAnd{})
	entries := []FrontierEntry{{Index: m.NumRows / 3, Value: 1}}
	var total float64
	for i := 0; i < 3; i++ {
		next, st, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += st.TimeNs()
		entries = next
		if len(entries) == 0 {
			break
		}
	}
	if math.Abs(mach.NowNs()-total) > 1e-6 {
		t.Fatalf("clock %.3f, want %.3f", mach.NowNs(), total)
	}
}

func TestErrorInjectionOffIsExact(t *testing.T) {
	m := testMatrix(t, 15)
	entries := randomFrontier(m.NumRows, 40, 3)
	a := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	checkAgainstReference(t, a, entries) // BitErrorRate zero by default
}

func TestErrorInjectionPerturbsValuesDeterministically(t *testing.T) {
	m := testMatrix(t, 16)
	entries := randomFrontier(m.NumRows, 40, 3)
	run := func() []FrontierEntry {
		plan, err := partition.Build(m, smallGeo(), partition.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.BitErrorRate = 0.05
		cfg.ErrorSeed = 7
		mach, err := New(plan, semiring.PlusTimes{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if mach.ErrorsInjected() == 0 {
			t.Fatal("5% error rate injected nothing")
		}
		return next
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("error injection not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("error injection not deterministic")
		}
	}
}

func TestBooleanAlgebraTolerantToBitErrors(t *testing.T) {
	// §9's claim: graph processing (boolean reachability) tolerates DRAM
	// error rates — a low-mantissa flip of 1.0 stays truthy, so BFS
	// frontiers are unchanged.
	m := testMatrix(t, 17)
	plan, err := partition.Build(m, smallGeo(), partition.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.BitErrorRate = 0.01
	cfg.ErrorSeed = 3
	mach, err := New(plan, semiring.BoolOrAnd{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := randomFrontier(m.NumRows, 20, 5)
	for i := range entries {
		entries[i].Value = 1
	}
	got, _, err := mach.Iterate(nil, entries, IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := refSpMSpV(plan.Matrix, semiring.BoolOrAnd{}, entries)
	if len(got) != len(want) {
		t.Fatalf("reachability changed under bit errors: %d vs %d", len(got), len(want))
	}
	for _, e := range got {
		if _, ok := want[e.Index]; !ok {
			t.Fatalf("spurious reachable vertex %d", e.Index)
		}
	}
}

func TestRefreshStretchesTime(t *testing.T) {
	m := testMatrix(t, 18)
	entries := randomFrontier(m.NumRows, 60, 5)
	timeFor := func(refresh bool) float64 {
		plan, err := partition.Build(m, smallGeo(), partition.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.ModelRefresh = refresh
		cfg.TREFINs, cfg.TRFCNs = 3900, 350
		mach, err := New(plan, semiring.PlusTimes{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := mach.Iterate(nil, entries, IterateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st.TimeNs()
	}
	off, on := timeFor(false), timeFor(true)
	if !(on > off) {
		t.Fatalf("refresh did not stretch time: %.1f vs %.1f", on, off)
	}
	if on > off*1.12 {
		t.Fatalf("refresh stretch %.3f exceeds the tRFC/tREFI bound", on/off)
	}
}

// TestQuickMoreWorkMoreEvents: adding frontier entries never decreases the
// instruction events or the activated-entry counts.
func TestQuickMoreWorkMoreEvents(t *testing.T) {
	m := testMatrix(t, 19)
	f := func(seed int64) bool {
		small := randomFrontier(m.NumRows, 10, seed)
		big := append(append([]FrontierEntry(nil), small...), randomFrontier(m.NumRows, 10, seed+1)...)
		run := func(entries []FrontierEntry) IterStats {
			mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
			_, st, err := mach.Iterate(nil, entries, IterateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		a, b := run(small), run(big)
		return b.ProcessedNNZ >= a.ProcessedNNZ &&
			b.EventsTotal().SPUInstrs >= a.EventsTotal().SPUInstrs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyStatsPopulated(t *testing.T) {
	m := testMatrix(t, 20)
	mach := buildMachine(t, m, partition.DefaultConfig(), semiring.PlusTimes{})
	_, st, err := mach.Iterate(nil, randomFrontier(m.NumRows, 50, 2), IterateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s3 := st.Steps[2]
	if s3.BusyMaxNs <= 0 || s3.BusyMeanNs <= 0 {
		t.Fatalf("step3 busy stats empty: %+v", s3)
	}
	if s3.Imbalance() < 1 {
		t.Fatalf("imbalance = %v, want >= 1", s3.Imbalance())
	}
	if (StepStats{}).Imbalance() != 0 {
		t.Fatal("empty step imbalance should be 0")
	}
}
