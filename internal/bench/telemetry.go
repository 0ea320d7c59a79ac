package bench

import (
	"fmt"

	"gearbox/internal/apps"
	"gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/telemetry"
)

// Spatial observability experiments: where the work lands. The cached Suite
// runs carry only global per-step aggregates, so these runners execute fresh
// BFS runs with a telemetry sink attached — per-SPU busy time, per-link word
// counts and dispatcher pressure are exactly what the cache cannot answer.

// heatmapBins is the number of SPU-index bins a heatmap row compresses the
// per-SPU distribution into.
const heatmapBins = 8

// telemetryRun executes BFS on a dataset with a SpatialStats sink attached
// to the machine.
func (s *Suite) telemetryRun(data *gen.Dataset) (*telemetry.SpatialStats, error) {
	pcfg, err := s.versionConfig("V3")
	if err != nil {
		return nil, err
	}
	plan, err := s.plan(data, pcfg)
	if err != nil {
		return nil, err
	}
	mcfg := gearbox.DefaultConfig()
	mcfg.Geo, mcfg.Tim = s.Cfg.Geo, s.Cfg.Tim
	var spatial *telemetry.SpatialStats
	run := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan,
		OnMachine: func(m *gearbox.Machine) {
			spatial = telemetry.NewSpatialStats(m.TelemetryShape())
			m.SetTelemetry(spatial)
		}}
	if _, err := apps.BFS(data.Matrix, 0, run); err != nil {
		return nil, err
	}
	return spatial, nil
}

// binShares folds a per-SPU distribution into heatmapBins index bins and
// returns each bin's percentage share of the total (zeros when idle).
func binShares(perSPU []float64) [heatmapBins]float64 {
	var bins, out [heatmapBins]float64
	total := 0.0
	n := len(perSPU)
	for k, v := range perSPU {
		bins[k*heatmapBins/n] += v
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range bins {
		out[i] = 100 * v / total
	}
	return out
}

// Heatmap renders the spatial telemetry as per-SPU busy-share rows for the
// compute steps, one block per dataset, with hottest-link notes — the
// text-mode analogue of the SparseP-style per-core activity heatmaps.
func (s *Suite) Heatmap() (Table, map[string]float64, error) {
	t := Table{
		Title:  "Heatmap: per-SPU busy share by SPU-index bin (BFS, GearboxV3)",
		Header: []string{"Dataset", "Step"},
	}
	for i := 0; i < heatmapBins; i++ {
		t.Header = append(t.Header, fmt.Sprintf("bin%d %%", i))
	}
	t.Header = append(t.Header, "max/mean")
	out := map[string]float64{}
	for _, d := range s.Datasets() {
		spatial, err := s.telemetryRun(d)
		if err != nil {
			return t, nil, err
		}
		for _, step := range []int{2, 3, 5, 6} {
			busy := spatial.SPUBusyNs[step-1]
			shares := binShares(busy)
			row := []string{d.Name, fmt.Sprintf("step%d", step)}
			for _, v := range shares {
				row = append(row, f1(v))
			}
			row = append(row, f2(maxOverMean(busy)))
			t.Rows = append(t.Rows, row)
			if step == 3 {
				out[d.Name] = maxOverMean(busy)
			}
		}
		t.Notes = append(t.Notes, heatmapNote(d.Name, spatial))
	}
	t.Notes = append(t.Notes,
		"bins aggregate the per-SPU busy time of each step into 8 equal SPU-index ranges; a flat row reads 12.5 everywhere",
		"-metrics on gearbox-sim exports the full (unbinned) arrays as JSON/CSV")
	return t, out, nil
}

// heatmapNote summarizes the hot links and dispatcher pressure of one run.
func heatmapNote(name string, sp *telemetry.SpatialStats) string {
	ringSeg, ringW := argmaxI64(sumSteps(sp.RingWords))
	vault, tsvW := argmaxI64(sumSteps(sp.TSVWords))
	bank, hw := argmaxI64(sp.DispatchHighWater)
	var local, remote, long int64
	for k := range sp.LocalAccums {
		local += sp.LocalAccums[k]
		remote += sp.RemoteAccums[k]
		long += sp.LongAccums[k]
	}
	return fmt.Sprintf("%s: hottest ring seg %d (%d words), hottest TSV vault %d (%d words), dispatch high-water %d pairs at bank %d; accums local/remote/long = %d/%d/%d",
		name, ringSeg, ringW, vault, tsvW, hw, bank, local, remote, long)
}

// maxOverMean is the load-imbalance ratio of a distribution (1 = balanced).
func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(xs)))
}

// sumSteps folds a [step][index] counter matrix across steps.
func sumSteps(m [][]int64) []int64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]int64, len(m[0]))
	for _, row := range m {
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

// argmaxI64 returns the index and value of a slice's maximum.
func argmaxI64(xs []int64) (int, int64) {
	bi, bv := 0, int64(0)
	for i, v := range xs {
		if v > bv {
			bi, bv = i, v
		}
	}
	return bi, bv
}
