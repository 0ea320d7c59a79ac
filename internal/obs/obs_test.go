package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics pins the scalar handle semantics: counters move
// forward only, gauges move both ways and track high-water marks.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Max(10)
	g.Max(3) // below current: no-op
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after Max = %v, want 10", got)
	}
}

// TestRegistryGetOrCreate pins idempotent registration: the same name with
// the same shape returns the same handle; a kind or label mismatch panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "help")
	b := r.Counter("shared_total", "other help ignored")
	if a != b {
		t.Fatal("same-name counter returned a fresh handle")
	}
	v1 := r.CounterVec("vec_total", "h", "tenant")
	v2 := r.CounterVec("vec_total", "h", "tenant")
	if v1.With("x") != v2.With("x") {
		t.Fatal("same-name vec series returned a fresh handle")
	}

	mustPanic(t, "kind mismatch", func() { r.Gauge("shared_total", "h") })
	mustPanic(t, "label mismatch", func() { r.CounterVec("vec_total", "h", "other") })
	mustPanic(t, "vec-vs-scalar", func() { r.Counter("vec_total", "h") })
	mustPanic(t, "invalid metric name", func() { r.Counter("1bad", "h") })
	mustPanic(t, "invalid label name", func() { r.CounterVec("ok_total", "h", "bad-label") })
	mustPanic(t, "descending buckets", func() { r.Histogram("h_desc", "h", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// TestHistogramBucketEdges pins the le-inclusive boundary semantics: zero
// and negative observations land in the first bucket, values exactly at a
// bound count into that bound's bucket, and anything above the last bound
// lands in +Inf without being dropped.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0, 1, 2.5})

	h.Observe(-3)              // below everything: first bucket (le="0")
	h.Observe(0)               // exactly at the first bound: still le="0"
	h.Observe(1)               // exactly at a bound: inclusive
	h.Observe(2.5)             // exactly at the last bound
	h.Observe(3)               // above the last bound: +Inf only
	h.Observe(math.MaxFloat64) // extreme overflow: +Inf, sum stays finite

	upper, cum := h.Buckets()
	if len(upper) != 3 || len(cum) != 4 {
		t.Fatalf("bucket shape = %d/%d, want 3/4", len(upper), len(cum))
	}
	// Cumulative: le=0 -> 2, le=1 -> 3, le=2.5 -> 4, +Inf -> 6.
	want := []uint64{2, 3, 4, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.IsInf(h.Sum(), 0) || math.IsNaN(h.Sum()) {
		t.Fatalf("sum = %v, want finite", h.Sum())
	}

	// An explicit trailing +Inf bound is folded into the implicit one.
	h2 := r.Histogram("lat2_seconds", "h", []float64{1, math.Inf(1)})
	h2.Observe(5)
	upper2, cum2 := h2.Buckets()
	if len(upper2) != 1 || cum2[len(cum2)-1] != 1 {
		t.Fatalf("explicit +Inf not folded: bounds %v cum %v", upper2, cum2)
	}
}

// TestVecCardinalityBound pins the overflow fold: past the limit, new label
// combinations share one "_other" series instead of growing the registry.
func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "h", "tenant").Limit(2)
	cv.With("a").Inc()
	cv.With("b").Inc()
	cv.With("c").Inc() // over the limit: folds
	cv.With("d").Inc() // same overflow series
	if cv.With("c") != cv.With("d") {
		t.Fatal("overflow series not shared")
	}
	if got := cv.With("c").Value(); got != 2 {
		t.Fatalf("overflow count = %v, want 2", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `req_total{tenant="_other"} 2`) {
		t.Fatalf("exposition missing overflow series:\n%s", out)
	}
	if strings.Contains(out, `tenant="c"`) || strings.Contains(out, `tenant="d"`) {
		t.Fatalf("over-limit series leaked into exposition:\n%s", out)
	}
}

// TestConcurrentHammer drives counters, gauges, vec series and histograms
// from many goroutines; totals must come out exact (the CI -race run is the
// data-race half of this test). The gauge runs in two phases with a barrier
// between them: first every worker's balanced Add pairs, then every
// worker's Max calls. Mixed in one phase, a worker's Max(7) could land
// between another worker's Add(1) and Add(-1) and leave the gauge at 6.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "h")
	g := r.Gauge("hammer_gauge", "h")
	cv := r.CounterVec("hammer_vec_total", "h", "worker")
	h := r.Histogram("hammer_seconds", "h", []float64{0.5, 1.5})

	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	var addsDone sync.WaitGroup // barrier between the gauge's two phases
	addsDone.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			series := cv.With(lbl)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				series.Add(2)
				h.Observe(float64(i % 2)) // alternates buckets 0 and 1
			}
			addsDone.Done()
			addsDone.Wait()
			for i := 0; i < iters; i++ {
				g.Max(float64(w))
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers-1 {
		t.Fatalf("gauge = %v, want max worker id %d", got, workers-1)
	}
	for w := 0; w < workers; w++ {
		if got := cv.With(string(rune('a' + w))).Value(); got != 2*iters {
			t.Fatalf("series %d = %v, want %d", w, got, 2*iters)
		}
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	_, cum := h.Buckets()
	if cum[0] != workers*iters/2 || cum[len(cum)-1] != workers*iters {
		t.Fatalf("histogram cumulative = %v", cum)
	}
}

// TestRecordPathAllocFree pins the alloc-free record contract on resolved
// handles — the property that lets the telemetry bridge run inside
// steady-state Iterate code.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "h")
	g := r.Gauge("alloc_gauge", "h")
	h := r.Histogram("alloc_seconds", "h", DefLatencyBuckets())
	series := r.CounterVec("alloc_vec_total", "h", "k").With("v")
	if avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		g.Max(3)
		h.Observe(0.25)
		series.Inc()
	}); avg > 0 {
		t.Fatalf("record path allocates: %.1f allocs/op, want 0", avg)
	}
}

// TestGaugeFunc pins scrape-time gauges: the function is consulted at
// exposition, not registration.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("pulled", "h", func() float64 { return v })
	v = 42
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pulled 42\n") {
		t.Fatalf("gauge func not pulled at scrape:\n%s", sb.String())
	}
}
