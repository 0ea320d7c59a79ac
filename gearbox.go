package gearbox

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"gearbox/internal/apps"
	"gearbox/internal/area"
	"gearbox/internal/energy"
	core "gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/multistack"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
	"gearbox/internal/telemetry"
	"gearbox/internal/trace"
)

// Re-exported building blocks, so downstream users never import internal
// packages directly.
type (
	// Matrix is a compressed-sparse-columns matrix (Fig. 4).
	Matrix = sparse.CSC
	// COO is the coordinate-list interchange format.
	COO = sparse.COO
	// Geometry describes the memory stack (Table 2).
	Geometry = mem.Geometry
	// Timing holds the clock-level constants (Table 2).
	Timing = mem.Timing
	// Dataset is a named evaluation matrix with its Table 3 context.
	Dataset = gen.Dataset
	// Size selects a dataset scale tier.
	Size = gen.Size
	// RunStats aggregates the simulated iterations of a run.
	RunStats = core.RunStats
	// Events counts simulated micro-events for the energy model.
	Events = core.Events
	// Work summarizes a run's algorithmic work for the baseline models.
	Work = apps.Work
	// BFSResult, PRResult, SSSPResult, KNNResult and SVMResult carry each
	// application's output plus statistics.
	BFSResult    = apps.BFSResult
	PRResult     = apps.PRResult
	SSSPResult   = apps.SSSPResult
	KNNResult    = apps.KNNResult
	SVMResult    = apps.SVMResult
	CCResult     = apps.CCResult
	SpMVResult   = apps.SpMVResult
	SpGEMMResult = apps.SpGEMMResult
	// TraceRecorder captures the simulated phase timeline and exports
	// chrome://tracing JSON.
	TraceRecorder = trace.Recorder
	// TelemetrySink receives spatial per-SPU/per-link counters from the
	// machine (internal/telemetry documents the callback contract).
	TelemetrySink = telemetry.Sink
	// SpatialStats is the standard telemetry sink: pre-sized heatmap arrays
	// with JSON/CSV export, allocation-free while attached.
	SpatialStats = telemetry.SpatialStats
	// EnergyBreakdown is the Fig. 14b decomposition in joules.
	EnergyBreakdown = energy.Breakdown
	// Placement selects where consecutive columns land (Fig. 16b).
	Placement = partition.Placement
)

// Dataset size tiers.
const (
	Tiny   = gen.Tiny
	Small  = gen.Small
	Medium = gen.Medium
)

// Placement policies (Fig. 16b).
const (
	Shuffled     = partition.Shuffled
	SameSubarray = partition.SameSubarray
	SameBank     = partition.SameBank
	SameVault    = partition.SameVault
	Distributed  = partition.Distributed
)

// NewCOO returns an empty coordinate-list matrix; fill it with Add and
// compress it with Compress.
func NewCOO(rows, cols int32) *COO { return sparse.NewCOO(rows, cols) }

// Compress converts a coordinate list to the CSC form the system consumes.
func Compress(m *COO) *Matrix { return sparse.CSCFromCOO(m) }

// LoadDataset builds one of the five evaluated synthetic datasets ("holly",
// "orkut", "patent", "road", "twitter") at the given size.
func LoadDataset(name string, size Size) (*Dataset, error) { return gen.Load(name, size) }

// DatasetNames lists the evaluated datasets in paper order.
func DatasetNames() []string { return append([]string(nil), gen.DatasetNames...) }

// Version selects a Gearbox variant from Table 4.
type Version int

// Table 4 versions. V0 is analytic-only (see internal/baselines); the others
// run on the simulator.
const (
	// V1 is column-oriented processing with naive column partitioning and
	// accumulation dispatching.
	V1 Version = iota + 1
	// HypoV2 places the entire input/output vectors in the logic layer
	// (impractical; evaluated for Fig. 13).
	HypoV2
	// V2 adds Hybrid partitioning without replication.
	V2
	// V3 is the full design: Hybrid partitioning plus long-entry
	// replication. The paper's headline numbers are V3's.
	V3
)

func (v Version) String() string {
	switch v {
	case V1:
		return "GearboxV1"
	case HypoV2:
		return "HypoGearboxV2"
	case V2:
		return "GearboxV2"
	case V3:
		return "GearboxV3"
	}
	return fmt.Sprintf("Version(%d)", int(v))
}

// PartitionConfig translates a version into the partitioner configuration.
func (v Version) PartitionConfig(longFrac float64, placement Placement, seed int64) (partition.Config, error) {
	cfg := partition.Config{Placement: placement, LongFrac: longFrac, Seed: seed}
	switch v {
	case V1:
		cfg.Scheme = partition.ColumnOriented
	case HypoV2:
		cfg.Scheme = partition.HypoLogicLayer
	case V2:
		cfg.Scheme = partition.Hybrid
	case V3:
		cfg.Scheme = partition.Hybrid
		cfg.Replicate = true
	default:
		return cfg, fmt.Errorf("gearbox: unknown version %d", int(v))
	}
	return cfg, nil
}

// Options configures a System. The zero value of each field selects the
// paper's configuration (V3, Table 2 geometry/timing, shuffled placement,
// the scaled long threshold).
type Options struct {
	Version  Version
	Geometry *Geometry
	Timing   *Timing
	// LongFrac is the long-column threshold. Zero selects the scaled paper
	// default (partition.ScaledLongFrac); any negative value requests
	// exactly zero long columns, which the zero value cannot express.
	LongFrac  float64
	Placement Placement
	Seed      int64
	// MaxIters bounds iterative apps (0: app default).
	MaxIters int
	// Workers sizes the deterministic worker pool of preprocessing
	// (partition plan build, permutation apply, CSC rebuild). 0 selects
	// GOMAXPROCS, 1 forces the serial path. Results are bit-identical for
	// every value. The simulation itself always runs on the calling
	// goroutine.
	Workers int
}

// resolveLongFrac maps the Options.LongFrac encoding onto the partitioner's
// plain fraction: 0 means "paper default", negative means "exactly zero".
func resolveLongFrac(f float64) float64 {
	switch {
	case f == 0:
		return partition.ScaledLongFrac
	case f < 0:
		return 0
	}
	return f
}

// validateLongFrac rejects the values resolveLongFrac would otherwise pass
// straight into the partitioner as a degenerate plan: NaN (every comparison
// is false, so no column is ever long yet the plan claims a long region) and
// fractions above 1 (more long columns than columns). Negative values are a
// valid encoding (exactly zero long columns), so only the upper side errors.
func validateLongFrac(f float64) error {
	if math.IsNaN(f) {
		return fmt.Errorf("gearbox: LongFrac is NaN; use 0 for the paper default or a negative value for no long columns")
	}
	if f > 1 {
		return fmt.Errorf("gearbox: LongFrac %v > 1; the long-column fraction cannot exceed the whole matrix", f)
	}
	return nil
}

// System is a partitioned Gearbox stack ready to run applications on one
// matrix. The expensive work — partition plan and machine construction —
// happens once: the first app run builds the machine, and every later run
// reuses it through the reset-to-pristine path (Machine.ResetForRun), so
// results are bit-identical to fresh builds while the build cost is paid a
// single time. App runs serialize on an internal mutex (one simulated stack
// runs one app at a time); concurrent callers simply queue.
type System struct {
	opts   Options
	matrix *Matrix // original labeling
	plan   *partition.Plan
	run    apps.RunConfig

	// mu serializes app runs on the pooled machine; mach is the machine the
	// first run built, reset and reused by every later run.
	mu   sync.Mutex
	mach *core.Machine

	// Observability subscribers, applied to every machine app runs build.
	traceRec *TraceRecorder
	telSink  TelemetrySink
}

// NewSystem partitions the matrix for the requested variant. The matrix must
// be square (vertex space is shared by rows and columns).
func NewSystem(m *Matrix, opts Options) (*System, error) {
	if opts.Version == 0 {
		opts.Version = V3
	}
	if err := validateLongFrac(opts.LongFrac); err != nil {
		return nil, err
	}
	opts.LongFrac = resolveLongFrac(opts.LongFrac)
	geo := mem.DefaultGeometry()
	if opts.Geometry != nil {
		geo = *opts.Geometry
	}
	tim := mem.DefaultTiming()
	if opts.Timing != nil {
		tim = *opts.Timing
	}
	pcfg, err := opts.Version.PartitionConfig(opts.LongFrac, opts.Placement, opts.Seed)
	if err != nil {
		return nil, err
	}
	pcfg.Workers = opts.Workers
	plan, err := partition.Build(m, geo, pcfg)
	if err != nil {
		return nil, err
	}
	mcfg := core.DefaultConfig()
	mcfg.Geo, mcfg.Tim = geo, tim
	s := &System{
		opts:   opts,
		matrix: m,
		plan:   plan,
		run: apps.RunConfig{
			Partition: pcfg,
			Machine:   mcfg,
			MaxIters:  opts.MaxIters,
			Plan:      plan,
		},
	}
	// Capture the machine the first run builds (for reuse by later runs) and
	// attach the current observability subscribers to every run's machine.
	s.run.OnMachine = s.onMachine
	return s, nil
}

// onMachine runs at the start of every app run, after build or reset: it
// pools the machine for reuse and attaches the current subscribers (a reset
// machine detaches them, exactly like a fresh build).
func (s *System) onMachine(m *core.Machine) {
	s.mach = m
	if s.traceRec != nil {
		m.SetTrace(s.traceRec.Hook())
	}
	m.SetTelemetry(s.telSink)
}

// runConfig returns the RunConfig for the next app run, routing it onto the
// pooled machine once one exists. Callers hold s.mu.
func (s *System) runConfig() apps.RunConfig {
	cfg := s.run
	cfg.Reuse = s.mach
	return cfg
}

// Reset returns the system's pooled machine to pristine immediately (clock,
// output and accumulator state, error streams, iteration numbering), as if
// no app had run yet. Calling it between runs is optional — every run resets
// the machine on entry — but it lets a pool manager scrub tenant state
// eagerly, e.g. before caching the system for a different tenant. A system
// that has not run anything yet is already pristine; Reset is then a no-op.
func (s *System) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mach != nil {
		s.mach.ResetForRun(nil)
	}
}

// Matrix returns the matrix the system was built for, in its original
// labeling.
func (s *System) Matrix() *Matrix { return s.matrix }

// Version reports the Table 4 variant the system simulates.
func (s *System) Version() Version { return s.opts.Version }

// LongCount reports how many vertices the partition labeled long (resident
// in the logic layer). Zero when Options.LongFrac was negative or the
// version has no long region.
func (s *System) LongCount() int { return int(s.plan.LastLong + 1) }

// BFS runs breadth-first search from source (original labeling).
func (s *System) BFS(source int32) (*BFSResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.BFS(s.matrix, source, s.runConfig())
}

// PageRank runs the damped power iteration for iters iterations.
func (s *System) PageRank(damping float32, iters int) (*PRResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.PageRank(s.matrix, damping, iters, s.runConfig())
}

// SSSP runs single-source shortest paths from source (original labeling).
func (s *System) SSSP(source int32) (*SSSPResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.SSSP(s.matrix, source, s.runConfig())
}

// SpKNN scores numQueries sparse queries of queryNNZ non-zeros each and
// returns their top-k neighbors. Queries are generated from seed.
func (s *System) SpKNN(numQueries, queryNNZ, k int, seed int64) (*KNNResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.SpKNN(s.matrix, numQueries, queryNNZ, k, seed, s.runConfig())
}

// SVM runs linear-SVM inference over batches weight vectors of weightNNZ
// non-zeros each, generated from seed.
func (s *System) SVM(batches, weightNNZ int, bias float32, seed int64) (*SVMResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.SVM(s.matrix, batches, weightNNZ, bias, seed, s.runConfig())
}

// ConnectedComponents runs min-label propagation (a §9 "other irregular
// kernels" extension); meaningful on symmetric matrices.
func (s *System) ConnectedComponents() (*CCResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.ConnectedComponents(s.matrix, s.runConfig())
}

// SpMV computes one y = M*x product over plus-times (zeros in x are
// skipped, so a sparse x is SpMSpV).
func (s *System) SpMV(x []float32) (*SpMVResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.SpMV(s.matrix, x, s.runConfig())
}

// SpGEMM computes C = M*B column by column, with M resident in the stack.
func (s *System) SpGEMM(b *Matrix) (*SpGEMMResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apps.SpGEMM(s.matrix, b, s.runConfig())
}

// RunRequest names an application run in the generic dispatch form shared by
// the CLIs and the serving layer. App selects the kernel; the remaining
// fields parameterize it, and zero values select the same defaults the
// gearbox-sim CLI uses, so a zero-filled request for any app is runnable.
type RunRequest struct {
	// App is one of "bfs", "pr", "sssp", "spknn", "svm", "cc" (case
	// insensitive, matching the gearbox-sim -app flag).
	App string
	// Source is the bfs/sssp source vertex in the original labeling.
	Source int32
	// Damping is the PageRank damping factor (0: 0.85).
	Damping float32
	// Iters bounds PageRank (0: 10 iterations).
	Iters int
	// Seed drives the spknn/svm input generators (0: seed 1).
	Seed int64
}

// RunOutput is the application-independent result of a Run: the hardware
// statistics and workload summary every app reports, plus a one-line
// human-readable Detail identical to the gearbox-sim CLI's result line.
type RunOutput struct {
	App    string
	Detail string
	Stats  RunStats
	Work   Work
}

// Run dispatches a generic run request onto the system. It is the engine
// behind gearbox-sim and gearbox-serve: every app is reachable through one
// call with one result shape, on the same pooled machine the typed methods
// use.
func (s *System) Run(req RunRequest) (*RunOutput, error) {
	n := s.matrix.NumRows
	iters := req.Iters
	if iters == 0 {
		iters = 10
	}
	damping := req.Damping
	if damping == 0 {
		damping = 0.85
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	out := &RunOutput{App: strings.ToLower(req.App)}
	switch out.App {
	case "bfs":
		res, err := s.BFS(req.Source)
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		out.Detail = fmt.Sprintf("visited %d of %d vertices", res.Visited, n)
	case "pr":
		res, err := s.PageRank(damping, iters)
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		var sum float32
		for _, r := range res.Ranks {
			sum += r
		}
		out.Detail = fmt.Sprintf("rank mass %.4f over %d vertices", sum, len(res.Ranks))
	case "sssp":
		res, err := s.SSSP(req.Source)
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		reach := 0
		for _, d := range res.Dist {
			if d < float32(1e30) {
				reach++
			}
		}
		out.Detail = fmt.Sprintf("reached %d vertices", reach)
	case "spknn":
		res, err := s.SpKNN(4, int(n/16)+1, 10, seed)
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		out.Detail = fmt.Sprintf("%d queries, top-%d each", len(res.Neighbors), 10)
	case "svm":
		res, err := s.SVM(4, int(n/16)+1, 0.5, seed)
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		out.Detail = fmt.Sprintf("%d inference batches", len(res.Classes))
	case "cc":
		res, err := s.ConnectedComponents()
		if err != nil {
			return nil, err
		}
		out.Stats, out.Work = res.Stats, res.Work
		out.Detail = fmt.Sprintf("%d connected components", res.Count)
	default:
		return nil, fmt.Errorf("gearbox: unknown app %q (want bfs, pr, sssp, spknn, svm or cc)", req.App)
	}
	return out, nil
}

// Apps lists the App names Run accepts, in gearbox-sim flag order.
func Apps() []string { return []string{"bfs", "pr", "sssp", "spknn", "svm", "cc"} }

// NewTraceRecorder returns a recorder for the phase timeline.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// Trace attaches a recorder to every subsequent app run (nil detaches).
// Trace and Telemetry compose: both subscribers see the same runs.
func (s *System) Trace(r *TraceRecorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceRec = r
}

// Telemetry attaches a spatial telemetry sink to every subsequent app run
// (nil detaches). Use NewSpatialStats for the standard accumulating sink,
// NewTraceCounterSink to feed Perfetto counter tracks, and TeeTelemetry to
// combine several sinks.
func (s *System) Telemetry(sink TelemetrySink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telSink = sink
}

// NewSpatialStats allocates a telemetry sink sized for this system's
// machines: per-SPU, per-ring-segment, per-TSV and per-bank counter arrays.
func (s *System) NewSpatialStats() *SpatialStats {
	return telemetry.NewSpatialStats(telemetry.ShapeOf(s.run.Machine.Geo, s.plan.NumSPUs))
}

// NewTraceCounterSink bridges telemetry onto the recorder's Perfetto counter
// tracks (frontier size, dispatcher-buffer occupancy over simulated time).
// The returned sink allocates per sample; do not use it in allocation-
// audited steady-state runs.
func NewTraceCounterSink(r *TraceRecorder) TelemetrySink { return telemetry.NewTraceSink(r) }

// TeeTelemetry fans one machine's telemetry out to several sinks; nil
// entries are dropped, and the result is nil when no sink remains.
func TeeTelemetry(sinks ...TelemetrySink) TelemetrySink { return telemetry.Tee(sinks...) }

// Energy prices a run's events with the default energy model.
func Energy(stats RunStats) EnergyBreakdown {
	return energy.DefaultModel().Breakdown(stats.EventsTotal(), stats.TimeNs())
}

// PowerWatts reports a run's average power under the default energy model.
func PowerWatts(stats RunStats) float64 {
	return energy.DefaultModel().PowerWatts(stats.EventsTotal(), stats.TimeNs())
}

// AreaEstimate returns the Table 6 arithmetic for the default geometry.
func AreaEstimate() area.Estimate { return area.NewEstimate(mem.DefaultGeometry()) }

// MultiStackDevice is the §6 scaling extension: several stacks jointly hold
// one matrix as column blocks and all-reduce their partial outputs.
type MultiStackDevice = multistack.Device

// FrontierEntry is one non-zero of a sparse input vector, used by the
// multi-stack device API.
type FrontierEntry = core.FrontierEntry

// NewMultiStackDevice block-partitions the matrix across stacks (the §6
// "future work" extension). The semiring is plus-times; use the internal
// multistack package directly for other algebras.
func NewMultiStackDevice(m *Matrix, stacks int, opts Options) (*MultiStackDevice, error) {
	if opts.Version == 0 {
		opts.Version = V3
	}
	if err := validateLongFrac(opts.LongFrac); err != nil {
		return nil, err
	}
	opts.LongFrac = resolveLongFrac(opts.LongFrac)
	pcfg, err := opts.Version.PartitionConfig(opts.LongFrac, opts.Placement, opts.Seed)
	if err != nil {
		return nil, err
	}
	pcfg.Workers = opts.Workers
	cfg := multistack.DefaultConfig()
	cfg.Stacks = stacks
	cfg.Partition = pcfg
	if opts.Geometry != nil {
		cfg.Machine.Geo = *opts.Geometry
	}
	if opts.Timing != nil {
		cfg.Machine.Tim = *opts.Timing
	}
	return multistack.New(m, semiring.PlusTimes{}, cfg)
}
