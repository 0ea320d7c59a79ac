// Package serve is the transport-agnostic core of gearbox-serve: a
// long-lived, multi-tenant simulation service over the build-once-run-many
// System API. Three pieces compose it:
//
//   - a pool of pre-built Systems keyed by (dataset, size, version,
//     LongFrac) — the first request for a key pays the preprocess +
//     partition + machine-build cost, every later request reuses the pooled
//     machine through the reset-to-pristine path, so serving a run costs
//     only the run;
//   - an admission queue with bounded depth and per-tenant round-robin
//     fairness: tenants dequeue in rotation, one job at a time, so a tenant
//     submitting a burst cannot starve the others, and Submit sheds load
//     with ErrQueueFull (HTTP 429) once the queue is full;
//   - a bounded worker set that executes queued runs on the pooled systems,
//     streaming per-job lifecycle events (queued, started, result/error —
//     or canceled, when the client left before start) and an optional
//     per-run telemetry snapshot.
//
// Every job carries a correlation ID (client-supplied or generated at
// admission) that threads through the whole observability surface: the
// lifecycle events, the X-Request-ID response header, the structured logs,
// the /v1/stats recent-run ring, and the run's telemetry and Perfetto trace
// snapshots — one ID links a client request to everything the run left
// behind. Host-side metrics (internal/obs) record the rest: request counts,
// queue depth and waits, run latencies, shed/cancel counts, pool traffic;
// scrape them at /metrics.
//
// The HTTP/JSON front end lives in http.go; tests drive the core directly.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gearbox"
	"gearbox/internal/cliutil"
	"gearbox/internal/obs"
	"gearbox/internal/telemetry"
	"gearbox/internal/trace"
)

// ErrQueueFull reports that the admission queue is at QueueDepth; the HTTP
// layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: admission queue is full, retry later")

// ErrClosed reports a Submit after Close.
var ErrClosed = errors.New("serve: server is closed")

// ErrCanceled reports a job dropped at the queue head because its context
// was canceled (the client disconnected) before a worker started it.
var ErrCanceled = errors.New("serve: canceled before start")

// Key identifies one pooled System. Two requests with the same normalized
// key run on the same built machine; geometry and timing are server-wide
// (the Table 2 defaults), so they are not part of the key.
type Key struct {
	// Dataset names an evaluation matrix ("holly", "orkut", "patent",
	// "road", "twitter" with the default builder).
	Dataset string `json:"dataset"`
	// Size is the dataset scale tier ("tiny", "small", "medium"; empty
	// selects small, like the CLI default).
	Size string `json:"size,omitempty"`
	// Version is the Table 4 variant ("v1", "hypov2", "v2", "v3"; empty
	// selects v3).
	Version string `json:"version,omitempty"`
	// LongFrac is the long-column threshold with the Options.LongFrac
	// encoding (0: scaled paper default, negative: no long columns).
	LongFrac float64 `json:"longfrac,omitempty"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s/longfrac=%g", k.Dataset, k.Size, k.Version, k.LongFrac)
}

// normalize validates the key and rewrites it to canonical spelling, so
// every alias of one configuration ("", "V3", "v3") shares one pool slot.
func (k Key) normalize() (Key, error) {
	if k.Dataset == "" {
		return k, errors.New("serve: dataset is required")
	}
	k.Dataset = strings.ToLower(k.Dataset)
	size, err := cliutil.ParseSize(k.Size)
	if err != nil {
		return k, err
	}
	switch size {
	case gearbox.Tiny:
		k.Size = "tiny"
	case gearbox.Small:
		k.Size = "small"
	case gearbox.Medium:
		k.Size = "medium"
	}
	ver, err := cliutil.ParseVersion(k.Version)
	if err != nil {
		return k, err
	}
	switch ver {
	case gearbox.V1:
		k.Version = "v1"
	case gearbox.HypoV2:
		k.Version = "hypov2"
	case gearbox.V2:
		k.Version = "v2"
	case gearbox.V3:
		k.Version = "v3"
	}
	return k, nil
}

// Request names one application run: which pooled system (Key), which
// tenant it is accounted to, and the app parameters in the gearbox.RunRequest
// form (zero values select the CLI defaults).
type Request struct {
	// Tenant is the fairness accounting unit; the empty string is a valid
	// (anonymous) tenant.
	Tenant string `json:"tenant,omitempty"`
	Key
	// App is one of "bfs", "pr", "sssp", "spknn", "svm", "cc".
	App     string  `json:"app"`
	Source  int32   `json:"source,omitempty"`
	Damping float32 `json:"damping,omitempty"`
	Iters   int     `json:"iters,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Telemetry requests a per-run spatial telemetry snapshot in the result.
	Telemetry bool `json:"telemetry,omitempty"`
	// Trace requests the run's Perfetto phase timeline in the result; the
	// trace is labeled with the run's correlation ID.
	Trace bool `json:"trace,omitempty"`
	// RunID is the client-supplied correlation ID ([0-9A-Za-z._-], at most
	// 64 chars; the HTTP layer also accepts it as X-Request-ID). Empty means
	// the server generates one. The ID is echoed in every lifecycle event,
	// the result, the logs, and the telemetry/trace snapshots.
	RunID string `json:"run_id,omitempty"`
}

// TraceDoc is a chrome://tracing document (the top-level object Perfetto
// opens directly), carried inline in a Result when the request asked for a
// trace.
type TraceDoc struct {
	TraceEvents []trace.Event `json:"traceEvents"`
}

// Result is one completed run: the CLI-identical detail line, the headline
// simulated metrics, the workload summary, and (when requested) the spatial
// telemetry snapshot and Perfetto trace for exactly this run. RunID is the
// job's correlation ID; everything else is bit-identical across identical
// requests.
type Result struct {
	RunID      string                `json:"run_id"`
	App        string                `json:"app"`
	Detail     string                `json:"detail"`
	TimeNs     float64               `json:"time_ns"`
	Iterations int                   `json:"iterations"`
	EnergyJ    float64               `json:"energy_j"`
	PowerW     float64               `json:"power_w"`
	Work       gearbox.Work          `json:"work"`
	Telemetry  *gearbox.SpatialStats `json:"telemetry,omitempty"`
	Trace      *TraceDoc             `json:"trace,omitempty"`
}

// Event is one step of a job's lifecycle, streamed to the submitter:
// "queued" (with the admission-time queue depth), then either "started"
// followed by exactly one of "result" or "error", or "canceled" when the
// client left before a worker picked the job up. Every event carries the
// job's correlation ID.
type Event struct {
	Event  string  `json:"event"`
	ID     uint64  `json:"id"`
	RunID  string  `json:"run_id,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	Queued int     `json:"queued,omitempty"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// Job is a submitted run. Events streams its lifecycle (the channel closes
// after the terminal event); Wait blocks for the terminal state.
type Job struct {
	ID uint64
	// RunID is the correlation ID: client-supplied or generated at
	// admission, unique within the process either way.
	RunID string

	req      Request
	ctx      context.Context
	queuedAt time.Time
	events   chan Event
	done     chan struct{}
	res      *Result
	err      error
}

// Events returns the job's lifecycle stream. The channel is buffered for
// the full lifecycle, so a submitter that never reads cannot stall a worker.
func (j *Job) Events() <-chan Event { return j.events }

// Wait blocks until the job completes and returns its result or error.
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return j.res, j.err
}

// Config sizes the server.
type Config struct {
	// Workers is the number of runs executing concurrently (default 1).
	Workers int
	// QueueDepth bounds admitted-but-not-started jobs across all tenants
	// (default 16); Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// Build constructs the System for a pool key. Nil selects the default
	// builder over the synthetic evaluation datasets.
	Build func(Key) (*gearbox.System, error)
	// Registry receives the server's host-side metrics and the simulated
	// aggregates bridged from every run's telemetry. Nil creates a private
	// registry (Registry() exposes it either way).
	Registry *obs.Registry
	// Logger receives structured lifecycle logs (job started/finished/
	// canceled, pool builds), each carrying the run's correlation ID. Nil
	// disables logging.
	Logger *slog.Logger
}

// DefaultBuilder builds Systems from the synthetic evaluation datasets, the
// same path the gearbox-sim CLI takes.
func DefaultBuilder() func(Key) (*gearbox.System, error) {
	return func(k Key) (*gearbox.System, error) {
		size, err := cliutil.ParseSize(k.Size)
		if err != nil {
			return nil, err
		}
		ver, err := cliutil.ParseVersion(k.Version)
		if err != nil {
			return nil, err
		}
		ds, err := gearbox.LoadDataset(k.Dataset, size)
		if err != nil {
			return nil, err
		}
		return gearbox.NewSystem(ds.Matrix, gearbox.Options{Version: ver, LongFrac: k.LongFrac})
	}
}

// poolEntry is one pooled System and its run bookkeeping. The entry mutex
// serializes build, telemetry attach, run, and snapshot, so a run's
// telemetry snapshot can never interleave with another run on the same
// machine. The counters are atomics so Stats never blocks behind a run in
// flight.
type poolEntry struct {
	mu     sync.Mutex
	sys    *gearbox.System
	tel    *gearbox.SpatialStats
	builds atomic.Int64
	runs   atomic.Int64
}

// RunRecord is one completed (or canceled) run in the /v1/stats recent-run
// ring: enough to pivot from a correlation ID to what happened, without
// retaining results.
type RunRecord struct {
	RunID  string  `json:"run_id"`
	Tenant string  `json:"tenant,omitempty"`
	App    string  `json:"app"`
	Key    Key     `json:"key"`
	Status string  `json:"status"` // "ok", "error", "canceled"
	WallMs float64 `json:"wall_ms"`
}

// maxRecent bounds the recent-run ring in Stats.
const maxRecent = 32

// Server is the serving core. Create with New, submit with Submit, shut
// down with Close.
type Server struct {
	cfg Config

	reg     *obs.Registry
	met     *metrics
	log     *slog.Logger
	simSink *telemetry.ObsSink

	// ridPrefix + the job ID make the generated correlation IDs: the prefix
	// is random per process, so IDs from restarts do not collide in logs.
	ridPrefix string

	// mu guards the admission queue. tenants holds each tenant's FIFO of
	// queued jobs; rr is the round-robin rotation of tenants with work (a
	// tenant appears exactly once while its FIFO is non-empty).
	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string][]*Job
	rr        []string
	queued    int
	closed    bool
	submitted uint64
	completed uint64
	shed      uint64
	canceled  uint64
	recent    []RunRecord // newest last; bounded by maxRecent

	poolMu sync.Mutex
	pool   map[Key]*poolEntry

	wg sync.WaitGroup

	// onStart, when non-nil, observes each job as a worker picks it up;
	// tests use it to pin the fairness order.
	onStart func(*Job)
}

// New starts a server with cfg.Workers executor goroutines.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Build == nil {
		cfg.Build = DefaultBuilder()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		met:       newMetrics(cfg.Registry),
		log:       cfg.Logger,
		simSink:   telemetry.NewObsSink(cfg.Registry),
		ridPrefix: ridPrefix(),
		tenants:   make(map[string][]*Job),
		pool:      make(map[Key]*poolEntry),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the server's metrics registry, for /metrics exposition
// or for folding further subsystems into the same scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ridPrefix draws the process-unique correlation-ID prefix.
func ridPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r0"
	}
	return hex.EncodeToString(b[:])
}

// validRunID accepts client-supplied correlation IDs: 1–64 chars from
// [0-9A-Za-z._-] (log-, header- and label-safe).
func validRunID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Submit admits a run with a background context (it can never be canceled
// while queued); see SubmitCtx.
func (s *Server) Submit(req Request) (*Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx validates and admits a run. It returns ErrQueueFull when the
// admission queue is at depth (the caller should shed load upstream) and
// never blocks on execution; follow the returned job's Events or Wait.
//
// ctx covers the queued phase: a job whose context is canceled before a
// worker starts it is dropped at the queue head with a "canceled" event
// (and counted in the canceled metric) instead of running. Cancellation
// does not interrupt a run already started — the pooled machine always
// finishes in a consistent state.
func (s *Server) SubmitCtx(ctx context.Context, req Request) (*Job, error) {
	key, err := req.Key.normalize()
	if err != nil {
		return nil, err
	}
	req.Key = key
	req.App = strings.ToLower(req.App)
	if !validApp(req.App) {
		return nil, fmt.Errorf("serve: unknown app %q (want %s)", req.App, strings.Join(gearbox.Apps(), ", "))
	}
	if req.RunID != "" && !validRunID(req.RunID) {
		return nil, fmt.Errorf("serve: invalid run_id %q (want 1-64 chars of [0-9A-Za-z._-])", req.RunID)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	// Count demand before the shed decision: shed requests were real load.
	s.met.requests.With(req.Tenant, req.App).Inc()
	if s.queued >= s.cfg.QueueDepth {
		s.shed++
		s.met.shed.Inc()
		return nil, ErrQueueFull
	}
	s.submitted++
	j := &Job{
		ID:       s.submitted,
		RunID:    req.RunID,
		req:      req,
		ctx:      ctx,
		queuedAt: obs.Now(),
		// queued + started + terminal: the stream never blocks a worker.
		events: make(chan Event, 3),
		done:   make(chan struct{}),
	}
	if j.RunID == "" {
		j.RunID = fmt.Sprintf("%s-%06x", s.ridPrefix, j.ID)
	}
	if len(s.tenants[req.Tenant]) == 0 {
		s.rr = append(s.rr, req.Tenant)
	}
	s.tenants[req.Tenant] = append(s.tenants[req.Tenant], j)
	s.queued++
	s.met.queueDepth.Set(float64(s.queued))
	j.events <- Event{Event: "queued", ID: j.ID, RunID: j.RunID, Tenant: req.Tenant, Queued: s.queued}
	s.cond.Signal()
	return j, nil
}

func validApp(app string) bool {
	for _, a := range gearbox.Apps() {
		if a == app {
			return true
		}
	}
	return false
}

// dequeue blocks for the next job in round-robin tenant order; nil means
// the server is closed and drained.
func (s *Server) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.queued == 0 {
		return nil
	}
	t := s.rr[0]
	s.rr = s.rr[1:]
	q := s.tenants[t]
	j := q[0]
	if len(q) > 1 {
		s.tenants[t] = q[1:]
		s.rr = append(s.rr, t) // back of the rotation: one job per turn
	} else {
		delete(s.tenants, t)
	}
	s.queued--
	s.met.queueDepth.Set(float64(s.queued))
	return j
}

// finish records a job's terminal state: the completion counters, the
// recent-run ring, and the structured log line.
func (s *Server) finish(j *Job, status string, wall time.Duration) {
	rec := RunRecord{
		RunID: j.RunID, Tenant: j.req.Tenant, App: j.req.App, Key: j.req.Key,
		Status: status, WallMs: float64(wall.Nanoseconds()) / 1e6,
	}
	s.mu.Lock()
	s.completed++
	if status == "canceled" {
		s.canceled++
	}
	s.recent = append(s.recent, rec)
	if len(s.recent) > maxRecent {
		s.recent = s.recent[len(s.recent)-maxRecent:]
	}
	s.mu.Unlock()

	logAttrs := []any{
		"run_id", j.RunID, "tenant", j.req.Tenant, "app", j.req.App,
		"key", j.req.Key.String(), "status", status, "wall_ms", rec.WallMs,
	}
	if j.err != nil {
		logAttrs = append(logAttrs, "error", j.err.Error())
	}
	s.log.Info("run finished", logAttrs...)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.dequeue()
		if j == nil {
			return
		}
		wait := obs.Since(j.queuedAt)
		// A client that left while its job was queued: drop the job here,
		// before it occupies a machine. Started runs are never interrupted.
		if err := j.ctx.Err(); err != nil {
			s.met.canceled.Inc()
			j.err = fmt.Errorf("%w: %v", ErrCanceled, err)
			s.finish(j, "canceled", 0)
			j.signal(Event{Event: "canceled", Error: j.err.Error()})
			continue
		}
		s.met.queueWait.Observe(wait.Seconds())
		if s.onStart != nil {
			s.onStart(j)
		}
		j.events <- Event{Event: "started", ID: j.ID, RunID: j.RunID, Tenant: j.req.Tenant}
		s.log.Info("run started",
			"run_id", j.RunID, "tenant", j.req.Tenant, "app", j.req.App,
			"key", j.req.Key.String(), "queue_wait_ms", float64(wait.Nanoseconds())/1e6)

		s.met.inflight.Add(1)
		t0 := obs.Now()
		res, err := s.execute(j)
		wall := obs.Since(t0)
		s.met.inflight.Add(-1)
		s.met.runSeconds.With(j.req.Dataset, j.req.Version, j.req.App).Observe(wall.Seconds())

		status, ev := "ok", Event{Event: "result", Result: res}
		if err != nil {
			status, ev = "error", Event{Event: "error", Error: err.Error()}
			s.met.runErrors.Inc()
			j.err = err
		} else {
			j.res = res
		}
		s.finish(j, status, wall)
		j.signal(ev)
	}
}

// signal sends j's terminal event and closes its channels. The worker
// records the job's outcome (Server.finish) first, so a Wait that returns
// sees the job counted in Stats.
func (j *Job) signal(ev Event) {
	ev.ID, ev.RunID, ev.Tenant = j.ID, j.RunID, j.req.Tenant
	j.events <- ev
	close(j.events)
	close(j.done)
}

// entry returns the pool slot for a key, creating an empty one on first use.
func (s *Server) entry(k Key) *poolEntry {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	e := s.pool[k]
	if e == nil {
		e = &poolEntry{}
		s.pool[k] = e
	}
	return e
}

// execute runs one job on its pooled system, building the system on the
// key's first run. Build errors are not cached: a bad key fails every
// request cheaply, a transient failure heals on retry. A panic in the build
// or the run ends only this job, as an error: the key's system is dropped,
// since a run that panicked mid-Iterate leaves the machine in an unknown
// state, and the key's next request rebuilds it.
func (s *Server) execute(j *Job) (res *Result, err error) {
	req := j.req
	e := s.entry(req.Key)
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			if e.sys != nil {
				s.met.poolSystems.Add(-1)
			}
			e.sys, e.tel = nil, nil
			res, err = nil, fmt.Errorf("serve: run panicked: %v", r)
		}
	}()
	if e.sys == nil {
		s.met.poolMisses.Inc()
		t0 := obs.Now()
		sys, err := s.cfg.Build(req.Key)
		if err != nil {
			return nil, err
		}
		build := obs.Since(t0)
		s.met.poolBuild.Observe(build.Seconds())
		s.met.poolSystems.Add(1)
		s.log.Info("system built",
			"run_id", j.RunID, "key", req.Key.String(),
			"build_ms", float64(build.Nanoseconds())/1e6)
		e.sys = sys
		e.builds.Add(1)
	} else {
		s.met.poolHits.Inc()
	}

	// Every run feeds the simulated-side aggregates (the obs bridge); a
	// per-run SpatialStats snapshot rides along only when requested.
	sink := telemetry.Sink(s.simSink)
	if req.Telemetry {
		if e.tel == nil {
			e.tel = e.sys.NewSpatialStats()
		}
		e.tel.Reset()
		sink = telemetry.Tee(sink, e.tel)
	}
	e.sys.Telemetry(sink)
	var rec *gearbox.TraceRecorder
	if req.Trace {
		rec = gearbox.NewTraceRecorder()
		rec.Label("run_id", j.RunID)
	}
	e.sys.Trace(rec) // nil detaches any previous run's recorder

	out, err := e.sys.Run(gearbox.RunRequest{
		App: req.App, Source: req.Source, Damping: req.Damping,
		Iters: req.Iters, Seed: req.Seed,
	})
	if err != nil {
		return nil, err
	}
	e.runs.Add(1)
	res = &Result{
		RunID:      j.RunID,
		App:        out.App,
		Detail:     out.Detail,
		TimeNs:     out.Stats.TimeNs(),
		Iterations: out.Work.Iterations,
		EnergyJ:    gearbox.Energy(out.Stats).Total(),
		PowerW:     gearbox.PowerWatts(out.Stats),
		Work:       out.Work,
	}
	if req.Telemetry {
		snap := e.tel.Snapshot()
		snap.RunID = j.RunID
		res.Telemetry = snap
	}
	if rec != nil {
		res.Trace = &TraceDoc{TraceEvents: rec.Events()}
	}
	return res, nil
}

// PoolStats describes one pooled System for introspection.
type PoolStats struct {
	Key    Key `json:"key"`
	Builds int `json:"builds"`
	Runs   int `json:"runs"`
}

// Stats is a point-in-time snapshot of the server.
type Stats struct {
	Queued    int            `json:"queued"`
	Tenants   map[string]int `json:"tenants,omitempty"`
	Submitted uint64         `json:"submitted"`
	Completed uint64         `json:"completed"`
	Shed      uint64         `json:"shed"`
	Canceled  uint64         `json:"canceled"`
	// Recent is the last-completed-runs ring, newest first; each record
	// carries the run's correlation ID for cross-referencing logs, metrics
	// and traces.
	Recent []RunRecord `json:"recent,omitempty"`
	Pool   []PoolStats `json:"pool"`
}

// Stats snapshots queue depths, completion counters, the recent-run ring
// and the pool. Pool entries are sorted by key so the output is stable.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Queued:    s.queued,
		Submitted: s.submitted,
		Completed: s.completed,
		Shed:      s.shed,
		Canceled:  s.canceled,
	}
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]int, len(s.tenants))
		for t, q := range s.tenants { //gearbox:nondet-ok builds a map; JSON encoding sorts keys
			st.Tenants[t] = len(q)
		}
	}
	if len(s.recent) > 0 {
		st.Recent = make([]RunRecord, len(s.recent))
		for i, r := range s.recent {
			st.Recent[len(s.recent)-1-i] = r // newest first
		}
	}
	s.mu.Unlock()

	s.poolMu.Lock()
	for k, e := range s.pool { //gearbox:nondet-ok entries are sorted by key below
		st.Pool = append(st.Pool, PoolStats{Key: k, Builds: int(e.builds.Load()), Runs: int(e.runs.Load())})
	}
	s.poolMu.Unlock()
	sort.Slice(st.Pool, func(i, j int) bool { return st.Pool[i].Key.String() < st.Pool[j].Key.String() })
	return st
}

// Close stops admission, drains every queued job, and waits for the workers
// to exit. Jobs already admitted still complete.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
