package bench

// The perf experiment is the repo's performance trajectory anchor: one V3
// run per (dataset, app) pair, reduced to the headline simulated metrics and
// written as BENCH_perf.json by CI on every commit. Because the simulator is
// deterministic, any diff in the simulated fields is a real modeling change,
// not noise — the JSON doubles as a regression fence and as the longitudinal
// record the ROADMAP's perf-trajectory item asks for.
//
// Alongside the simulated metrics the report carries host-side columns:
// wall time and allocation volume per cell, and an ingest section comparing
// the streaming .mtx-to-CSC path against the COO path on a synthetic
// fixture. Host numbers vary machine to machine, so the committed baseline
// is compared with a warn-only tolerance (see ci.yml), never bit-for-bit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gearbox/internal/gen"
	"gearbox/internal/mtx"
	"gearbox/internal/obs"
	"gearbox/internal/sparse"
)

// PerfEntry is one (dataset, app) cell of the perf report.
type PerfEntry struct {
	Dataset      string  `json:"dataset"`
	App          string  `json:"app"`
	Version      string  `json:"version"`
	TimeNs       float64 `json:"time_ns"`
	EnergyJ      float64 `json:"energy_j"`
	Iterations   int     `json:"iterations"`
	ProcessedNNZ int64   `json:"processed_nnz"`
	// GTEPS is processed matrix entries per simulated second, in billions —
	// the cross-dataset throughput headline.
	GTEPS float64 `json:"gteps"`
	// Host-side columns: what the run cost the machine executing the
	// simulator, as opposed to the simulated machine. Noisy across hosts;
	// diffed with tolerance, never exactly. HostWallNs is the serial
	// (Workers=1) wall time; HostWallParNs re-runs the same cell on the
	// worker pool at Workers=GOMAXPROCS — the two columns together are
	// the host-speedup trajectory of the parallel iteration engine. The
	// simulated metrics are bit-identical between the two runs (the
	// equivalence suite enforces it), so only the serial run's are reported.
	HostWallNs     int64 `json:"host_wall_ns"`
	HostWallParNs  int64 `json:"host_wall_par_ns"`
	HostAllocBytes int64 `json:"host_alloc_bytes"`
	HostMallocs    int64 `json:"host_mallocs"`
}

// IngestPathStats is one ingest strategy's measured cost on the fixture.
type IngestPathStats struct {
	WallNs     int64 `json:"wall_ns"`
	AllocBytes int64 `json:"alloc_bytes"`
	Mallocs    int64 `json:"mallocs"`
	// PeakHeapBytes is the sampled high-water live heap above the pre-run
	// baseline — the closest portable stand-in for peak RSS growth.
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
}

// IngestStats compares the COO ingest path (mtx.Read + CSCFromCOO) against
// the streaming path (mtx.ReadCSC) on the same generated .mtx bytes. The
// two must produce identical matrices; MemRatio is the COO path's peak heap
// growth over the streaming path's — the tentpole's headline column.
type IngestStats struct {
	Fixture  string          `json:"fixture"`
	NNZ      int             `json:"nnz"`
	COO      IngestPathStats `json:"coo"`
	Stream   IngestPathStats `json:"stream"`
	MemRatio float64         `json:"mem_ratio"`
}

// PerfReport is the machine-readable result of the perf experiment.
type PerfReport struct {
	Size    string       `json:"size"`
	Entries []PerfEntry  `json:"entries"`
	Ingest  *IngestStats `json:"ingest,omitempty"`
}

// WriteJSON emits the report as one indented JSON object.
func (r PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// hostMeasure runs fn while tracking wall time, allocation volume, and the
// sampled live-heap high-water mark above the pre-run baseline. The GC runs
// first so the baseline is live data, not garbage awaiting collection.
func hostMeasure(fn func() error) (IngestPathStats, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := before.HeapAlloc
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	start := obs.Now()
	err := fn()
	wall := obs.Since(start).Nanoseconds()
	close(stop)
	wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}
	return IngestPathStats{
		WallNs:        wall,
		AllocBytes:    int64(after.TotalAlloc - before.TotalAlloc),
		Mallocs:       int64(after.Mallocs - before.Mallocs),
		PeakHeapBytes: int64(peak - before.HeapAlloc),
	}, err
}

// ingestFixtureScale picks the fixture size per tier: big enough that the
// two paths' memory envelopes separate, small enough for CI.
func ingestFixtureScale(size gen.Size) (scale int, edgeFactor float64) {
	switch size {
	case gen.Tiny:
		return 13, 8
	case gen.Medium:
		return 18, 16
	default:
		return 16, 12
	}
}

// measureIngest generates an RMAT fixture, serializes it as .mtx text, and
// measures both ingest paths over the same bytes. The results must be
// Equal — the trajectory doubles as an end-to-end equivalence check.
func (s *Suite) measureIngest() (*IngestStats, error) {
	scale, ef := ingestFixtureScale(s.Cfg.Size)
	m, err := gen.RMAT(gen.RMATConfig{
		Scale: scale, EdgeFactor: ef, A: 0.57, B: 0.19, C: 0.19,
		Noise: 0.1, Seed: s.Cfg.Seed, Workers: s.Cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := mtx.Write(&buf, m.ToCOO()); err != nil {
		return nil, err
	}
	data := buf.Bytes()

	var viaCOO, viaStream *sparse.CSC
	cooStats, err := hostMeasure(func() error {
		coo, err := mtx.ReadOpts(bytes.NewReader(data), mtx.Options{Workers: s.Cfg.Workers})
		if err != nil {
			return err
		}
		viaCOO = sparse.CSCFromCOOWorkers(coo, s.Cfg.Workers)
		return nil
	})
	if err != nil {
		return nil, err
	}
	streamStats, err := hostMeasure(func() error {
		viaStream, err = mtx.ReadCSCOpts(bytes.NewReader(data), mtx.Options{Workers: s.Cfg.Workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	if !viaStream.Equal(viaCOO) {
		return nil, fmt.Errorf("bench: streaming ingest differs from COO path on the %s fixture", fmt.Sprintf("rmat%d", scale))
	}
	ratio := 0.0
	if streamStats.PeakHeapBytes > 0 {
		ratio = float64(cooStats.PeakHeapBytes) / float64(streamStats.PeakHeapBytes)
	}
	return &IngestStats{
		Fixture:  fmt.Sprintf("rmat%d ef%g (%d bytes mtx)", scale, ef, len(data)),
		NNZ:      viaStream.NNZ(),
		COO:      cooStats,
		Stream:   streamStats,
		MemRatio: ratio,
	}, nil
}

// Perf runs every application on every dataset at GearboxV3 and reports the
// headline simulated metrics per cell, plus host wall/alloc columns (serial
// and parallel engine) and the ingest-path comparison. Both host columns
// bypass the run cache — the cache key has no worker dimension, and a cached
// result would report zero wall time.
func (s *Suite) Perf() (Table, PerfReport, error) {
	t := Table{
		Title:  "Perf trajectory (GearboxV3, simulated headline metrics + host cost)",
		Header: []string{"dataset", "app", "time_us", "energy_mJ", "iters", "nnz", "GTEPS", "host_ms", "host_par_ms", "host_MB"},
		Notes: []string{
			"simulated columns are deterministic: any diff against a prior BENCH_perf.json is a modeling change",
			"host_* columns are machine-dependent; compare with tolerance",
			fmt.Sprintf("host_ms runs Workers=1, host_par_ms the worker pool at Workers=GOMAXPROCS (%d here); simulated results are bit-identical between the two", runtime.GOMAXPROCS(0)),
		},
	}
	rep := PerfReport{Size: s.Cfg.Size.String()}
	em := s.energyModel()
	for _, d := range s.Datasets() {
		for _, app := range []string{"BFS", "PR", "SPKNN", "SSSP", "SVM"} {
			pcfg, err := s.versionConfig("V3")
			if err != nil {
				return t, rep, err
			}
			var timeNs, energyJ, gteps float64
			var iters int
			var nnz int64
			host, err := hostMeasure(func() error {
				res, err := s.execute(app, d, pcfg, s.Cfg.Tim, 1)
				if err != nil {
					return err
				}
				timeNs = res.Stats.TimeNs()
				energyJ = em.Breakdown(res.Stats.EventsTotal(), timeNs).Total()
				iters = res.Work.Iterations
				nnz = res.Work.ProcessedNNZ
				if timeNs > 0 {
					gteps = float64(nnz) / timeNs // nnz/ns == Gnnz/s
				}
				return nil
			})
			if err != nil {
				return t, rep, err
			}
			var parTimeNs float64
			hostPar, err := hostMeasure(func() error {
				res, err := s.execute(app, d, pcfg, s.Cfg.Tim, 0)
				if err != nil {
					return err
				}
				parTimeNs = res.Stats.TimeNs()
				return nil
			})
			if err != nil {
				return t, rep, err
			}
			if parTimeNs != timeNs {
				return t, rep, fmt.Errorf("bench: %s/%s simulated time diverges between serial (%v) and parallel (%v) engines", d.Name, app, timeNs, parTimeNs)
			}
			rep.Entries = append(rep.Entries, PerfEntry{
				Dataset:        d.Name,
				App:            app,
				Version:        "V3",
				TimeNs:         timeNs,
				EnergyJ:        energyJ,
				Iterations:     iters,
				ProcessedNNZ:   nnz,
				GTEPS:          gteps,
				HostWallNs:     host.WallNs,
				HostWallParNs:  hostPar.WallNs,
				HostAllocBytes: host.AllocBytes,
				HostMallocs:    host.Mallocs,
			})
			t.Rows = append(t.Rows, []string{
				d.Name, app, f1(timeNs / 1e3), f3(energyJ * 1e3),
				fmt.Sprintf("%d", iters), fmt.Sprintf("%d", nnz), f3(gteps),
				f1(float64(host.WallNs) / 1e6), f1(float64(hostPar.WallNs) / 1e6),
				f1(float64(host.AllocBytes) / (1 << 20)),
			})
		}
	}
	ing, err := s.measureIngest()
	if err != nil {
		return t, rep, err
	}
	rep.Ingest = ing
	t.Notes = append(t.Notes, fmt.Sprintf(
		"ingest %s: %d nnz, peak heap coo=%.1f MB stream=%.1f MB (ratio %.2fx), wall coo=%.0f ms stream=%.0f ms",
		ing.Fixture, ing.NNZ,
		float64(ing.COO.PeakHeapBytes)/(1<<20), float64(ing.Stream.PeakHeapBytes)/(1<<20), ing.MemRatio,
		float64(ing.COO.WallNs)/1e6, float64(ing.Stream.WallNs)/1e6))
	return t, rep, nil
}
