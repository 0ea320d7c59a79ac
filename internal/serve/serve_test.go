package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gearbox"
)

// tinySystem builds the patent/tiny/v3 system the tests run against; the
// custom builder keeps tests off the size/version normalization they don't
// exercise while counting builds stays observable through Stats.
func tinySystem(t *testing.T) func(Key) (*gearbox.System, error) {
	t.Helper()
	return func(k Key) (*gearbox.System, error) {
		ds, err := gearbox.LoadDataset(k.Dataset, gearbox.Tiny)
		if err != nil {
			return nil, err
		}
		return gearbox.NewSystem(ds.Matrix, gearbox.Options{LongFrac: k.LongFrac})
	}
}

func submit(t *testing.T, s *Server, req Request) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestServeMatchesBatch pins serve-vs-batch equality: a run served from the
// pool reports exactly the simulated time, detail line, and work summary the
// direct System.Run path produces.
func TestServeMatchesBatch(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	j := submit(t, s, Request{Key: Key{Dataset: "patent", Size: "tiny"}, App: "bfs"})
	got, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}

	ds, err := gearbox.LoadDataset("patent", gearbox.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gearbox.NewSystem(ds.Matrix, gearbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run(gearbox.RunRequest{App: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Detail != want.Detail {
		t.Fatalf("detail = %q, want %q", got.Detail, want.Detail)
	}
	if got.TimeNs != want.Stats.TimeNs() {
		t.Fatalf("time = %v, want %v", got.TimeNs, want.Stats.TimeNs())
	}
	if !reflect.DeepEqual(got.Work, want.Work) {
		t.Fatalf("work = %+v, want %+v", got.Work, want.Work)
	}
	if got.EnergyJ <= 0 || got.PowerW <= 0 {
		t.Fatalf("non-positive energy/power: %+v", got)
	}
}

// TestServeBuildsOnceRunsMany pins the pool contract: many runs (different
// apps, same key) share one built System, a different key builds its own,
// and repeated identical requests return bit-identical results.
func TestServeBuildsOnceRunsMany(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	key := Key{Dataset: "patent", Size: "tiny"}
	var results []*Result
	for _, app := range []string{"bfs", "pr", "sssp", "bfs"} {
		res, err := submit(t, s, Request{Key: key, App: app, Telemetry: true}).Wait()
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		results = append(results, res)
	}
	// Identical requests on a reused machine return identical results,
	// telemetry snapshot included — only the correlation IDs (unique per
	// job, stamped host-side) may differ.
	a, b := *results[0], *results[3]
	if a.RunID == b.RunID || a.RunID == "" {
		t.Fatalf("run IDs not unique: %q vs %q", a.RunID, b.RunID)
	}
	a.RunID, b.RunID = "", ""
	at, bt := *a.Telemetry, *b.Telemetry
	at.RunID, bt.RunID = "", ""
	a.Telemetry, b.Telemetry = &at, &bt
	if !reflect.DeepEqual(&a, &b) {
		t.Fatal("two identical BFS runs on the pooled machine differ")
	}

	if _, err := submit(t, s, Request{Key: Key{Dataset: "road", Size: "tiny"}, App: "bfs"}).Wait(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if len(st.Pool) != 2 {
		t.Fatalf("pool entries = %d, want 2", len(st.Pool))
	}
	for _, p := range st.Pool {
		if p.Builds != 1 {
			t.Fatalf("pool %v: builds = %d, want 1 (build-once violated)", p.Key, p.Builds)
		}
	}
	if st.Pool[0].Runs+st.Pool[1].Runs != 5 {
		t.Fatalf("pool runs = %d+%d, want 5", st.Pool[0].Runs, st.Pool[1].Runs)
	}
	if st.Completed != 5 || st.Submitted != 5 {
		t.Fatalf("completed/submitted = %d/%d, want 5/5", st.Completed, st.Submitted)
	}
}

// TestPanickingJobIsIsolated: a job whose build panics ends with a terminal
// error event, counts as a run error, and leaves the server serving: the
// next request, on a healthy key, returns its result.
func TestPanickingJobIsIsolated(t *testing.T) {
	healthy := tinySystem(t)
	s := New(Config{Build: func(k Key) (*gearbox.System, error) {
		if k.Dataset == "road" {
			panic("corrupt build")
		}
		return healthy(k)
	}})
	defer s.Close()

	bad := submit(t, s, Request{Key: Key{Dataset: "road", Size: "tiny"}, App: "bfs"})
	var last Event
	for ev := range bad.Events() {
		last = ev
	}
	if last.Event != "error" || !strings.Contains(last.Error, "corrupt build") {
		t.Fatalf("panicking job ended with %+v, want an error event naming the panic", last)
	}
	if _, err := bad.Wait(); err == nil {
		t.Fatal("panicking job reported no error")
	}

	good := submit(t, s, Request{Key: Key{Dataset: "patent", Size: "tiny"}, App: "bfs"})
	for ev := range good.Events() {
		last = ev
	}
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("healthy job after a panic ended with %+v, want a result", last)
	}
	if got := s.met.runErrors.Value(); got != 1 {
		t.Fatalf("run errors = %v, want 1", got)
	}
	st := s.Stats()
	if len(st.Recent) != 2 || st.Recent[0].Status != "ok" || st.Recent[1].Status != "error" {
		t.Fatalf("recent ring = %+v, want the ok run after the errored one", st.Recent)
	}
}

// gatedBuilder blocks the first build until released, so tests can fill the
// queue deterministically while the single worker is pinned in execute.
func gatedBuilder(t *testing.T, entered chan<- struct{}, release <-chan struct{}) func(Key) (*gearbox.System, error) {
	inner := tinySystem(t)
	return func(k Key) (*gearbox.System, error) {
		entered <- struct{}{}
		<-release
		return inner(k)
	}
}

// TestBackpressure pins load shedding: with the worker pinned and the queue
// at depth, Submit returns ErrQueueFull and counts the shed request.
func TestBackpressure(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{QueueDepth: 2, Build: gatedBuilder(t, entered, release)})
	defer s.Close()

	key := Key{Dataset: "patent", Size: "tiny"}
	first := submit(t, s, Request{Key: key, App: "bfs"})
	<-entered // the worker holds the first job; it no longer occupies the queue

	j2 := submit(t, s, Request{Key: key, App: "bfs"})
	j3 := submit(t, s, Request{Key: key, App: "bfs"})
	if _, err := s.Submit(Request{Key: key, App: "bfs"}); err != ErrQueueFull {
		t.Fatalf("fourth submit: err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Queued != 2 {
		t.Fatalf("shed/queued = %d/%d, want 1/2", st.Shed, st.Queued)
	}

	close(release)
	for _, j := range []*Job{first, j2, j3} {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantFairness pins the round-robin admission order: with tenant A's
// burst queued ahead of tenant B's, workers alternate tenants one job per
// turn instead of draining A first.
func TestTenantFairness(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{QueueDepth: 8, Build: gatedBuilder(t, entered, release)})
	defer s.Close()

	var order []string
	s.onStart = func(j *Job) {
		order = append(order, fmt.Sprintf("%s%d", j.req.Tenant, j.ID))
	}

	key := Key{Dataset: "patent", Size: "tiny"}
	jobs := []*Job{submit(t, s, Request{Tenant: "A", Key: key, App: "bfs"})}
	<-entered // A1 is in the worker; everything below queues behind it
	for _, tenant := range []string{"A", "A", "A", "B", "B"} {
		jobs = append(jobs, submit(t, s, Request{Tenant: tenant, Key: key, App: "bfs"}))
	}
	close(release)
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// IDs are 1..6: A1 ran alone, then A2..A4 and B5,B6 interleave fairly.
	want := []string{"A2", "B5", "A3", "B6", "A4"}
	if got := order[1:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("start order = %v, want %v (after %s)", got, want, order[0])
	}
}

// TestSubmitValidation pins the cheap rejections: bad app names and bad keys
// fail at Submit (the HTTP layer's 400), not in a worker.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	if _, err := s.Submit(Request{Key: Key{Dataset: "patent"}, App: "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := s.Submit(Request{Key: Key{Dataset: "patent", Size: "huge"}, App: "bfs"}); err == nil {
		t.Fatal("unknown size accepted")
	}
	if _, err := s.Submit(Request{App: "bfs"}); err == nil {
		t.Fatal("empty dataset accepted")
	}

	// An unknown dataset passes admission (the builder decides) and fails
	// the run with an error event, leaving the server healthy.
	j := submit(t, s, Request{Key: Key{Dataset: "unknown"}, App: "bfs"})
	if _, err := j.Wait(); err == nil {
		t.Fatal("unknown dataset ran successfully")
	}
	if _, err := submit(t, s, Request{Key: Key{Dataset: "patent"}, App: "bfs"}).Wait(); err != nil {
		t.Fatalf("server unhealthy after failed build: %v", err)
	}
}

// TestKeyNormalization pins that spelling variants of one configuration
// share a single pooled System.
func TestKeyNormalization(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	for _, key := range []Key{
		{Dataset: "patent", Size: "tiny", Version: "v3"},
		{Dataset: "Patent", Size: "tiny", Version: "V3"},
		{Dataset: "patent", Size: "tiny"}, // empty version defaults to v3
	} {
		if _, err := submit(t, s, Request{Key: key, App: "bfs"}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); len(st.Pool) != 1 || st.Pool[0].Builds != 1 || st.Pool[0].Runs != 3 {
		t.Fatalf("pool = %+v, want one entry with 1 build and 3 runs", st.Pool)
	}
}

// TestCloseDrains pins shutdown: queued jobs still complete, and Submit
// after Close fails with ErrClosed.
func TestCloseDrains(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	key := Key{Dataset: "patent", Size: "tiny"}
	j := submit(t, s, Request{Key: key, App: "bfs"})
	s.Close()
	if _, err := j.Wait(); err != nil {
		t.Fatalf("queued job dropped at Close: %v", err)
	}
	if _, err := s.Submit(Request{Key: key, App: "bfs"}); err != ErrClosed {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestCanceledBeforeStart pins the deadline contract: a job whose context is
// canceled while it waits in the queue is dropped at the queue head — no
// "started" event, a "canceled" terminal event, ErrCanceled from Wait, and
// the canceled counter in both Stats and the metrics registry.
func TestCanceledBeforeStart(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{QueueDepth: 4, Build: gatedBuilder(t, entered, release)})
	defer s.Close()

	key := Key{Dataset: "patent", Size: "tiny"}
	first := submit(t, s, Request{Key: key, App: "bfs"})
	<-entered // the single worker is pinned inside the build

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := s.SubmitCtx(ctx, Request{Key: key, App: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the client leaves while the job is still queued
	close(release)

	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled job: err = %v, want ErrCanceled", err)
	}
	var kinds []string
	for ev := range doomed.Events() {
		kinds = append(kinds, ev.Event)
	}
	if want := []string{"queued", "canceled"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event order = %v, want %v (a canceled job must never start)", kinds, want)
	}

	st := s.Stats()
	if st.Canceled != 1 || st.Completed != 2 {
		t.Fatalf("canceled/completed = %d/%d, want 1/2", st.Canceled, st.Completed)
	}
	var found bool
	for _, r := range st.Recent {
		if r.RunID == doomed.RunID && r.Status == "canceled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("canceled run missing from recent ring: %+v", st.Recent)
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gearbox_serve_canceled_total 1") {
		t.Fatal("canceled counter not exported")
	}
}

// TestRunCorrelation pins the correlation-ID contract: one ID — client-
// supplied here — appears in every lifecycle event, the result, the
// telemetry snapshot, the trace's process labels, and the recent-run ring.
func TestRunCorrelation(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	const rid = "corr-test.01"
	j, err := s.Submit(Request{
		Key: Key{Dataset: "patent", Size: "tiny"}, App: "bfs",
		RunID: rid, Telemetry: true, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.RunID != rid {
		t.Fatalf("job RunID = %q, want the client-supplied %q", j.RunID, rid)
	}
	var res *Result
	for ev := range j.Events() {
		if ev.RunID != rid {
			t.Fatalf("%s event RunID = %q, want %q", ev.Event, ev.RunID, rid)
		}
		if ev.Result != nil {
			res = ev.Result
		}
	}
	if res == nil || res.RunID != rid {
		t.Fatalf("result RunID = %+v, want %q", res, rid)
	}
	if res.Telemetry == nil || res.Telemetry.RunID != rid {
		t.Fatalf("telemetry snapshot RunID missing: %+v", res.Telemetry)
	}
	if res.Trace == nil {
		t.Fatal("trace requested but missing from result")
	}
	var labeled bool
	for _, ev := range res.Trace.TraceEvents {
		if ev.Name == "process_labels" && ev.Args["labels"] == "run_id="+rid {
			labeled = true
		}
	}
	if !labeled {
		t.Fatal("trace not labeled with the run's correlation ID")
	}
	st := s.Stats()
	if len(st.Recent) != 1 || st.Recent[0].RunID != rid || st.Recent[0].Status != "ok" {
		t.Fatalf("recent ring = %+v, want one ok record with RunID %q", st.Recent, rid)
	}
}

// TestRunIDGeneratedUnique pins server-side ID assignment: omitted run IDs
// are generated, distinct per job, and invalid client IDs are rejected at
// Submit (the HTTP 400 path).
func TestRunIDGeneratedUnique(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	key := Key{Dataset: "patent", Size: "tiny"}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		j := submit(t, s, Request{Key: key, App: "bfs"})
		if j.RunID == "" || seen[j.RunID] {
			t.Fatalf("run %d: ID %q empty or repeated", i, j.RunID)
		}
		seen[j.RunID] = true
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"has space", "emoji-é", strings.Repeat("x", 65)} {
		if _, err := s.Submit(Request{Key: key, App: "bfs", RunID: bad}); err == nil {
			t.Fatalf("invalid run_id %q accepted", bad)
		}
	}
}

// TestEventStream pins the lifecycle contract: queued, started, then the
// terminal event, and the channel closes.
func TestEventStream(t *testing.T) {
	s := New(Config{Build: tinySystem(t)})
	defer s.Close()

	j := submit(t, s, Request{Tenant: "t0", Key: Key{Dataset: "patent", Size: "tiny"}, App: "bfs"})
	var kinds []string
	for ev := range j.Events() {
		kinds = append(kinds, ev.Event)
		if ev.ID != j.ID {
			t.Fatalf("event ID = %d, want %d", ev.ID, j.ID)
		}
		if ev.Event == "result" && (ev.Result == nil || ev.Result.Detail == "") {
			t.Fatalf("result event without payload: %+v", ev)
		}
	}
	if want := []string{"queued", "started", "result"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event order = %v, want %v", kinds, want)
	}
}
