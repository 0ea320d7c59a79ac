package bench

import (
	"fmt"
	"math"
	"sync"

	"gearbox/internal/apps"
	"gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/mem"
	"gearbox/internal/par"
	"gearbox/internal/partition"
)

// Config sizes the experiment suite.
type Config struct {
	Size gen.Size
	Geo  mem.Geometry
	Tim  mem.Timing
	// Application parameters (§7.1-class workloads).
	PRIters   int
	PRDamping float32
	// QueryDensity sizes SpKNN query and SVM weight vectors as a fraction
	// of the vertex count (real sparse queries and support-vector
	// expansions carry thousands of non-zeros; §7.4 notes SPKNN's vectors
	// "have many non-zero values").
	QueryDensity float64
	KNNQueries   int
	KNNQueryNNZ  int // floor for tiny matrices
	KNNK         int
	SVMBatches   int
	SVMWeightNNZ int // floor for tiny matrices
	SSSPMaxIters int
	// LongFrac is the scaled default long threshold (Fig. 16a's sweep
	// overrides it).
	LongFrac float64
	Seed     int64
}

// DefaultConfig runs the Small tier: every dataset in the hundred-thousand-
// non-zeros range, so the full suite finishes in tens of seconds.
func DefaultConfig() Config {
	return Config{
		Size:         gen.Small,
		Geo:          mem.DefaultGeometry(),
		Tim:          mem.DefaultTiming(),
		PRIters:      10,
		PRDamping:    0.85,
		QueryDensity: 1.0 / 16,
		KNNQueries:   8,
		KNNQueryNNZ:  32,
		KNNK:         10,
		SVMBatches:   8,
		SVMWeightNNZ: 32,
		SSSPMaxIters: 4000,
		LongFrac:     partition.ScaledLongFrac,
		Seed:         1,
	}
}

// TinyConfig is the fast tier used by the harness's own tests.
func TinyConfig() Config {
	c := DefaultConfig()
	c.Size = gen.Tiny
	c.PRIters = 5
	c.KNNQueries = 3
	c.SVMBatches = 3
	return c
}

// Suite caches datasets, partition plans and application runs so the
// experiment runners can share work.
type Suite struct {
	Cfg Config

	mu       sync.Mutex
	datasets []*gen.Dataset
	plans    map[string]*partition.Plan
	runs     map[string]*apps.Result
}

// NewSuite loads the datasets.
func NewSuite(cfg Config) (*Suite, error) {
	ds, err := gen.LoadAll(cfg.Size)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Cfg:      cfg,
		datasets: ds,
		plans:    map[string]*partition.Plan{},
		runs:     map[string]*apps.Result{},
	}, nil
}

// Datasets returns the five evaluation datasets in paper order.
func (s *Suite) Datasets() []*gen.Dataset { return s.datasets }

// plan builds (or fetches) the partition plan for a dataset/config pair.
func (s *Suite) plan(d *gen.Dataset, pcfg partition.Config) (*partition.Plan, error) {
	key := fmt.Sprintf("%s|%v|%v|%v|%v|%v|%d", d.Name, pcfg.Scheme, pcfg.Placement, pcfg.LongFrac, pcfg.Replicate, pcfg.Balance, pcfg.Seed)
	s.mu.Lock()
	p, ok := s.plans[key]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := partition.Build(d.Matrix, s.Cfg.Geo, pcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: plan %s: %w", key, err)
	}
	s.mu.Lock()
	s.plans[key] = p
	s.mu.Unlock()
	return p, nil
}

// versionConfig maps a Table 4 version name to a partition configuration.
func (s *Suite) versionConfig(version string) (partition.Config, error) {
	cfg := partition.Config{Placement: partition.Shuffled, LongFrac: s.Cfg.LongFrac, Seed: s.Cfg.Seed}
	switch version {
	case "V1":
		cfg.Scheme = partition.ColumnOriented
		cfg.LongFrac = 0
	case "HypoV2":
		cfg.Scheme = partition.HypoLogicLayer
	case "V2":
		cfg.Scheme = partition.Hybrid
	case "V3":
		cfg.Scheme = partition.Hybrid
		cfg.Replicate = true
	default:
		return cfg, fmt.Errorf("bench: unknown version %q", version)
	}
	return cfg, nil
}

// Versions lists the simulated Table 4 variants (V0 is analytic).
var Versions = []string{"V1", "HypoV2", "V2", "V3"}

// Run executes (or fetches) one application on one dataset under one
// partition config and timing. Callers that measure HOST cost (Perf's host
// columns) must use the uncached execute.
func (s *Suite) Run(app string, d *gen.Dataset, pcfg partition.Config, tim mem.Timing) (*apps.Result, error) {
	key := fmt.Sprintf("%s|%s|%v|%v|%v|%v|%v|%d|%g", app, d.Name, pcfg.Scheme, pcfg.Placement, pcfg.LongFrac, pcfg.Replicate, pcfg.Balance, pcfg.Seed, tim.SPUFreqHz)
	s.mu.Lock()
	r, ok := s.runs[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	res, err := s.execute(app, d, pcfg, tim)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.runs[key] = res
	s.mu.Unlock()
	return res, nil
}

// execute runs one cell uncached — the primitive behind Run and behind
// Perf's host timing. Plans are still shared through the plan cache.
func (s *Suite) execute(app string, d *gen.Dataset, pcfg partition.Config, tim mem.Timing) (*apps.Result, error) {
	plan, err := s.plan(d, pcfg)
	if err != nil {
		return nil, err
	}
	mcfg := gearbox.DefaultConfig()
	mcfg.Geo, mcfg.Tim = s.Cfg.Geo, tim
	run := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan}

	var res apps.Result
	switch app {
	case "BFS":
		out, err := apps.BFS(d.Matrix, 0, run)
		if err != nil {
			return nil, err
		}
		res = out.Result
	case "PR":
		out, err := apps.PageRank(d.Matrix, s.Cfg.PRDamping, s.Cfg.PRIters, run)
		if err != nil {
			return nil, err
		}
		res = out.Result
	case "SPKNN":
		out, err := apps.SpKNN(d.Matrix, s.Cfg.KNNQueries, s.queryNNZ(d, s.Cfg.KNNQueryNNZ), s.Cfg.KNNK, s.Cfg.Seed, run)
		if err != nil {
			return nil, err
		}
		res = out.Result
	case "SSSP":
		run.MaxIters = s.Cfg.SSSPMaxIters
		out, err := apps.SSSP(d.Matrix, 0, run)
		if err != nil {
			return nil, err
		}
		res = out.Result
	case "SVM":
		out, err := apps.SVM(d.Matrix, s.Cfg.SVMBatches, s.queryNNZ(d, s.Cfg.SVMWeightNNZ), 0.5, s.Cfg.Seed, run)
		if err != nil {
			return nil, err
		}
		res = out.Result
	default:
		return nil, fmt.Errorf("bench: unknown app %q", app)
	}
	return &res, nil
}

// RunVersion is Run with a Table 4 version name and default timing.
func (s *Suite) RunVersion(app string, d *gen.Dataset, version string) (*apps.Result, error) {
	pcfg, err := s.versionConfig(version)
	if err != nil {
		return nil, err
	}
	return s.Run(app, d, pcfg, s.Cfg.Tim)
}

// Prewarm executes the version matrix (apps x datasets x Table 4 versions)
// on a pool of workers (<= 0 selects GOMAXPROCS) so the experiment runners
// hit the cache. Every job runs even after one fails; Prewarm returns the
// first error in job order.
func (s *Suite) Prewarm(workers int) error {
	type job struct {
		app, version string
		d            *gen.Dataset
	}
	var jobs []job
	for _, app := range apps.Names {
		for _, d := range s.Datasets() {
			for _, v := range Versions {
				jobs = append(jobs, job{app: app, version: v, d: d})
			}
		}
	}
	errs := make([]error, len(jobs))
	par.New(workers).ForEach("prewarm", len(jobs), func(_, i int) {
		_, errs[i] = s.RunVersion(jobs[i].app, jobs[i].d, jobs[i].version)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryNNZ sizes sparse query/weight vectors by QueryDensity with a floor.
func (s *Suite) queryNNZ(d *gen.Dataset, floor int) int {
	n := int(float64(d.Matrix.NumRows) * s.Cfg.QueryDensity)
	if n < floor {
		n = floor
	}
	return n
}

// geomean of a slice; zero-length or non-positive values panic (they signal
// a harness bug, not a user error).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("bench: geomean of nothing")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			panic(fmt.Sprintf("bench: geomean of non-positive %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
