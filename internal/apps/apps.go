// Package apps implements the five evaluated applications of §7.1 — BFS,
// PageRank, SSSP, Sparse KNN and SVM — on top of the Gearbox machine, each
// expressed as iterated generalized SpMSpV exactly as the paper maps them
// (§2.2, §5). Every app has a plain-Go reference implementation used by the
// tests to validate the simulator functionally, mirroring the paper's
// Gunrock-based validation.
package apps

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// Names lists the applications in paper order (Fig. 12's x-axis).
var Names = []string{"BFS", "PR", "SPKNN", "SSSP", "SVM"}

// RunConfig selects the hardware configuration an app runs on. Each run
// simulates on the calling goroutine, so callers parallelize by running
// apps concurrently on separate machines.
type RunConfig struct {
	Partition partition.Config
	Machine   gearbox.Config
	// MaxIters bounds iterative apps (0: app default).
	MaxIters int
	// Plan, when non-nil, reuses a prebuilt partition (it must match
	// Partition and Machine.Geo).
	Plan *partition.Plan
	// Reuse, when non-nil, runs the app on this already-built machine
	// instead of constructing a fresh one: the machine is returned to
	// pristine with ResetForRun (swapping in the app's semiring), so the
	// run is bit-identical to one on a fresh build while skipping the
	// partition and machine construction cost — the build-once-run-many
	// path. The machine's plan must be the one the run expects (Plan, when
	// both are set). Partition and Machine are ignored on this path; the
	// caller must not touch the machine while the run is in flight.
	Reuse *gearbox.Machine
	// OnMachine, when non-nil, receives the machine before the run starts
	// (e.g. to attach a trace recorder).
	OnMachine func(*gearbox.Machine)
}

// DefaultRunConfig is the GearboxV3 configuration on the Table 2 machine.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Partition: partition.DefaultConfig(),
		Machine:   gearbox.DefaultConfig(),
	}
}

// Work summarizes the algorithmic work a run performed, independent of the
// hardware; the baseline models price the same work on other architectures.
type Work struct {
	Rows         int64
	TotalNNZ     int64
	Iterations   int
	ProcessedNNZ int64 // activated matrix entries across the run
	FrontierSum  int64 // input frontier entries across the run
	RemoteFrac   float64
	DenseIters   int // iterations whose output is dense (apply step)
}

// Result bundles the hardware statistics and the workload summary.
type Result struct {
	Stats gearbox.RunStats
	Work  Work
}

// addIter folds one iteration into the work summary.
func (r *Result) addIter(st gearbox.IterStats, frontierIn int, dense bool) {
	r.Stats.Iterations = append(r.Stats.Iterations, st)
	r.Work.Iterations++
	r.Work.ProcessedNNZ += st.ProcessedNNZ
	r.Work.FrontierSum += int64(frontierIn)
	if dense {
		r.Work.DenseIters++
	}
}

func (r *Result) finish() {
	var remote, total int64
	for _, it := range r.Stats.Iterations {
		remote += it.RemoteAccums
		total += it.RemoteAccums + it.LocalAccums + it.LongAccums
	}
	if total > 0 {
		r.Work.RemoteFrac = float64(remote) / float64(total)
	}
}

// buildMachine assembles plan + machine for a run, or re-arms the pooled
// machine on the Reuse path.
func buildMachine(m *sparse.CSC, sem semiring.Semiring, cfg RunConfig) (*gearbox.Machine, error) {
	if mach := cfg.Reuse; mach != nil {
		if cfg.Plan != nil && mach.Plan() != cfg.Plan {
			return nil, fmt.Errorf("apps: reused machine was built for a different plan")
		}
		if mach.Plan().Matrix.NumRows != m.NumRows {
			return nil, fmt.Errorf("apps: reused machine was built for a %d-row matrix, run wants %d", mach.Plan().Matrix.NumRows, m.NumRows)
		}
		mach.ResetForRun(sem)
		if cfg.OnMachine != nil {
			cfg.OnMachine(mach)
		}
		return mach, nil
	}
	plan := cfg.Plan
	if plan == nil {
		var err error
		plan, err = partition.Build(m, cfg.Machine.Geo, cfg.Partition)
		if err != nil {
			return nil, fmt.Errorf("apps: partitioning: %w", err)
		}
	}
	mach, err := gearbox.New(plan, sem, cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("apps: machine: %w", err)
	}
	if cfg.OnMachine != nil {
		cfg.OnMachine(mach)
	}
	return mach, nil
}

func newResult(m *sparse.CSC) Result {
	return Result{Work: Work{Rows: int64(m.NumRows), TotalNNZ: int64(m.NNZ())}}
}
