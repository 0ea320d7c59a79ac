// Command gearbox-sim runs a single application on the Gearbox simulator and
// prints the simulated time, per-step breakdown, workload statistics, and
// energy.
//
// Usage:
//
//	gearbox-sim -dataset holly -app bfs -version v3 [-size small]
//	            [-longfrac 0.005] [-placement shuffled] [-source 0]
//	gearbox-sim -mtx path/to/matrix.mtx -app pr
//	gearbox-sim -rmat 22 -edgefactor 16 -app pr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"gearbox"
	"gearbox/internal/cliutil"
	"gearbox/internal/gen"
	"gearbox/internal/mtx"
)

// cpuProfiling tracks whether a CPU profile is being collected, so fatal can
// flush it before os.Exit discards the buffered samples.
var cpuProfiling bool

func main() {
	dataset := flag.String("dataset", "holly", "dataset: holly, orkut, patent, road, twitter")
	mtxPath := flag.String("mtx", "", "load a Matrix Market .mtx file instead of a synthetic dataset")
	rmatScale := flag.Int("rmat", 0, "generate an RMAT matrix of this scale (2^scale vertices) instead of a named dataset")
	edgeFactor := flag.Float64("edgefactor", 16, "average non-zeros per column for -rmat")
	sizeFlag := flag.String("size", "small", "dataset size tier: tiny, small, medium")
	app := flag.String("app", "bfs", "application: bfs, pr, sssp, spknn, svm, cc")
	version := flag.String("version", "v3", "gearbox version: v1, hypov2, v2, v3")
	longFrac := flag.Float64("longfrac", 0, "long row/column fraction (0: scaled default, negative: no long columns)")
	placementFlag := flag.String("placement", "shuffled", "placement: shuffled, samesubarray, samebank, samevault, distributed")
	source := flag.Int("source", 0, "source vertex for bfs/sssp")
	prIters := flag.Int("pr-iters", 10, "PageRank iterations (0: the default 10)")
	workers := flag.Int("workers", 0, "worker goroutines for preprocessing: mtx load, RMAT generation, partition (0: GOMAXPROCS, 1: serial; results are identical). The simulation itself runs on one goroutine")
	tracePath := flag.String("trace", "", "write a chrome://tracing JSON timeline to this file")
	metricsPath := flag.String("metrics", "", "write a spatial telemetry snapshot (per-SPU/per-link counters) as JSON to this file; .csv extension selects CSV")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfiling = true
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	size, err := cliutil.ParseSize(*sizeFlag)
	if err != nil {
		fatal(err)
	}
	ver, err := cliutil.ParseVersion(*version)
	if err != nil {
		fatal(err)
	}
	placement, err := cliutil.ParsePlacement(*placementFlag)
	if err != nil {
		fatal(err)
	}

	var ds *gearbox.Dataset
	switch {
	case *mtxPath != "" && *rmatScale != 0:
		fatal(fmt.Errorf("-mtx and -rmat are mutually exclusive"))
	case *mtxPath != "":
		ds, err = loadMTX(*mtxPath, *workers)
	case *rmatScale != 0:
		ds, err = genRMAT(*rmatScale, *edgeFactor, *workers)
	default:
		ds, err = gearbox.LoadDataset(*dataset, size)
	}
	if err != nil {
		fatal(err)
	}
	sys, err := gearbox.NewSystem(ds.Matrix, gearbox.Options{
		Version: ver, LongFrac: *longFrac, Placement: placement, Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}

	var rec *gearbox.TraceRecorder
	if *tracePath != "" {
		rec = gearbox.NewTraceRecorder()
		sys.Trace(rec)
	}
	var spatial *gearbox.SpatialStats
	var sinks []gearbox.TelemetrySink
	if *metricsPath != "" {
		spatial = sys.NewSpatialStats()
		sinks = append(sinks, spatial)
	}
	if rec != nil {
		// With tracing on, telemetry also feeds the Perfetto counter tracks
		// (frontier size, dispatcher-buffer occupancy over simulated time).
		sinks = append(sinks, gearbox.NewTraceCounterSink(rec))
	}
	sys.Telemetry(gearbox.TeeTelemetry(sinks...))

	out, err := sys.Run(gearbox.RunRequest{App: *app, Source: int32(*source), Iters: *prIters})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dataset      %s (%s, %d rows, %d nnz)\n", ds.Name, *sizeFlag, ds.Matrix.NumRows, ds.Matrix.NNZ())
	fmt.Printf("version      %s  placement=%s\n", ver, placement)
	fmt.Printf("result       %s\n", out.Detail)
	fmt.Printf("iterations   %d\n", out.Work.Iterations)
	fmt.Printf("sim time     %.3f us\n", out.Stats.TimeNs()/1e3)
	for step := 1; step <= 6; step++ {
		fmt.Printf("  step %d     %.3f us\n", step, out.Stats.StepTimeNs(step)/1e3)
	}
	fmt.Printf("activated    %d nnz, frontier sum %d, remote frac %.3f\n",
		out.Work.ProcessedNNZ, out.Work.FrontierSum, out.Work.RemoteFrac)
	b := gearbox.Energy(out.Stats)
	fmt.Printf("energy       %.3e J (row activation %.0f%%)\n", b.Total(),
		100*b.RowActivation/(b.Total()-b.Static))

	if rec != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace        %d phase events -> %s\n", rec.Len(), *tracePath)
	}
	if spatial != nil {
		if err := writeMetrics(spatial, *metricsPath); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics      %d iterations of spatial counters -> %s\n", spatial.Iterations, *metricsPath)
	}
}

// writeMetrics snapshots the spatial telemetry; the file extension picks the
// format (JSON by default, tidy CSV for .csv).
func writeMetrics(s *gearbox.SpatialStats, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		return s.WriteCSV(f)
	}
	return s.WriteJSON(f)
}

// loadMTX runs the streaming ingest pipeline on a Matrix Market file: two
// bounded-memory passes directly into the width-adaptive CSC, bit-identical
// at any worker count and never holding the entries as a COO. This is what makes ~100M+ nnz SuiteSparse files loadable
// on ordinary hosts (see DESIGN.md §7 for the memory envelope).
func loadMTX(path string, workers int) (*gearbox.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mtx.ReadCSCOpts(f, mtx.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), ".mtx")
	return &gearbox.Dataset{Name: name, FullName: path, Matrix: m}, nil
}

// genRMAT builds a full-size synthetic power-law matrix, the offline
// stand-in for the paper's large SuiteSparse graphs (Graph500 parameters).
func genRMAT(scale int, edgeFactor float64, workers int) (*gearbox.Dataset, error) {
	m, err := gen.RMAT(gen.RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, Noise: 0.1,
		Seed: 1, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("rmat%d", scale)
	return &gearbox.Dataset{Name: name, FullName: fmt.Sprintf("RMAT scale %d edge factor %g", scale, edgeFactor), Matrix: m}, nil
}

func fatal(err error) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	fmt.Fprintln(os.Stderr, "gearbox-sim:", err)
	os.Exit(1)
}

// writeMemProfile snapshots the heap after a GC so the profile shows live
// steady-state allocations rather than collectable garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}
