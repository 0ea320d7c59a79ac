package bench

// The perf experiment is the repo's performance trajectory anchor: one V3
// run per (dataset, app) pair, reduced to the headline simulated metrics and
// written as BENCH_perf.json by CI on every commit. Because the simulator is
// deterministic, any diff in the simulated fields is a real modeling change,
// not noise — the JSON doubles as a regression fence and as the longitudinal
// record the ROADMAP's perf-trajectory item asks for.
//
// Alongside the simulated metrics the report carries host-side columns:
// wall time and allocation volume per cell. Host numbers vary machine to
// machine, so the committed baseline is compared with a warn-only tolerance
// (see ci.yml), never bit-for-bit.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"gearbox/internal/obs"
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
	// diffed with tolerance, never exactly.
	HostWallNs     int64 `json:"host_wall_ns"`
	HostAllocBytes int64 `json:"host_alloc_bytes"`
	HostMallocs    int64 `json:"host_mallocs"`
}

// PerfReport is the machine-readable result of the perf experiment.
type PerfReport struct {
	Size    string      `json:"size"`
	Entries []PerfEntry `json:"entries"`
}

// WriteJSON emits the report as one indented JSON object.
func (r PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// hostCost is what one measured call cost the host.
type hostCost struct {
	wallNs, allocBytes, mallocs int64
}

// hostMeasure runs fn and reports its wall time and allocation volume. The
// GC runs first so one cell's garbage is not collected on the next cell's
// clock.
func hostMeasure(fn func() error) (hostCost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := obs.Now()
	err := fn()
	wall := obs.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return hostCost{
		wallNs:     wall,
		allocBytes: int64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    int64(after.Mallocs - before.Mallocs),
	}, err
}

// Perf runs every application on every dataset at GearboxV3 and reports the
// headline simulated metrics per cell, plus host wall/alloc columns. The
// runs bypass the run cache: a cached result would report zero wall time.
func (s *Suite) Perf() (Table, PerfReport, error) {
	t := Table{
		Title:  "Perf trajectory (GearboxV3, simulated headline metrics + host cost)",
		Header: []string{"dataset", "app", "time_us", "energy_mJ", "iters", "nnz", "GTEPS", "host_ms", "host_MB"},
		Notes: []string{
			"simulated columns are deterministic: any diff against a prior BENCH_perf.json is a modeling change",
			"host_* columns are machine-dependent; compare with tolerance",
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
				res, err := s.execute(app, d, pcfg, s.Cfg.Tim)
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
			rep.Entries = append(rep.Entries, PerfEntry{
				Dataset:        d.Name,
				App:            app,
				Version:        "V3",
				TimeNs:         timeNs,
				EnergyJ:        energyJ,
				Iterations:     iters,
				ProcessedNNZ:   nnz,
				GTEPS:          gteps,
				HostWallNs:     host.wallNs,
				HostAllocBytes: host.allocBytes,
				HostMallocs:    host.mallocs,
			})
			t.Rows = append(t.Rows, []string{
				d.Name, app, f1(timeNs / 1e3), f3(energyJ * 1e3),
				fmt.Sprintf("%d", iters), fmt.Sprintf("%d", nnz), f3(gteps),
				f1(float64(host.wallNs) / 1e6),
				f1(float64(host.allocBytes) / (1 << 20)),
			})
		}
	}
	return t, rep, nil
}
