package bench

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"gearbox/internal/mem"
	"gearbox/internal/mtx"
	"gearbox/internal/partition"
	"gearbox/internal/sparse"
)

// TestPreprocessingPipelineWorkersEquivalent runs the whole ingest path —
// mtx bytes → ReadCSC → partition plan — at several worker counts and
// requires bit-identical results, end to end. This is the integration-level
// determinism contract for the preprocessing pipeline; the per-stage
// equivalence tests live with their packages.
func TestPreprocessingPipelineWorkersEquivalent(t *testing.T) {
	rng := newTestCOO()
	var buf bytes.Buffer
	if err := mtx.Write(&buf, rng); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	geo := mem.DefaultGeometry()

	type result struct {
		matrix *sparse.CSC
		plan   *partition.Plan
	}
	runAt := func(workers int) result {
		t.Helper()
		m, err := mtx.ReadCSCOpts(bytes.NewReader(data), mtx.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg := partition.DefaultConfig()
		cfg.Workers = workers
		plan, err := partition.Build(m, geo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return result{matrix: m, plan: plan}
	}

	want := runAt(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := runAt(w)
		if !slices.Equal(got.matrix.Offsets, want.matrix.Offsets) ||
			!slices.Equal(got.matrix.IndexesInt32(), want.matrix.IndexesInt32()) ||
			!slices.Equal(got.matrix.Values, want.matrix.Values) {
			t.Fatalf("workers=%d: CSC differs from serial pipeline", w)
		}
		p, q := got.plan, want.plan
		if p.LastLong != q.LastLong ||
			!slices.Equal(p.Perm.New, q.Perm.New) ||
			!slices.Equal(p.OwnerOf, q.OwnerOf) ||
			!slices.Equal(p.Ranges, q.Ranges) ||
			!slices.Equal(p.Matrix.IndexesInt32(), q.Matrix.IndexesInt32()) ||
			!slices.Equal(p.Matrix.Values, q.Matrix.Values) {
			t.Fatalf("workers=%d: partition plan differs from serial pipeline", w)
		}
	}
}

// newTestCOO builds a small square matrix with duplicates so the reader's
// duplicate merge has real work to do.
func newTestCOO() *sparse.COO {
	m := sparse.NewCOO(1<<12, 1<<12)
	m.Entries = make([]sparse.Entry, 0, 1<<15)
	// Deterministic LCG keeps the fixture independent of math/rand ordering.
	state := uint64(1)
	next := func(n int32) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		return int32((state >> 33) % uint64(n))
	}
	for i := 0; i < 1<<15; i++ {
		m.Entries = append(m.Entries, sparse.Entry{
			Row: next(1 << 12), Col: next(1 << 12), Val: float32(next(9) + 1),
		})
	}
	return m
}
