package bench

import (
	"fmt"

	"gearbox/internal/apps"
	"gearbox/internal/gearbox"
	"gearbox/internal/telemetry"
)

// Spatial observability experiments: where the work lands. The cached Suite
// runs carry only global per-step aggregates, so these runners execute fresh
// BFS runs with a telemetry sink attached — per-SPU busy time, per-link word
// counts and dispatcher pressure are exactly what the cache cannot answer.

// heatmapBins is the number of SPU-index bins a heatmap row compresses the
// per-SPU distribution into.
const heatmapBins = 8

// telemetryRun executes BFS on a dataset with a SpatialStats sink (and
// optionally host-pool instrumentation) attached to the machine.
func (s *Suite) telemetryRun(d string, instrumentPool bool) (*telemetry.SpatialStats, *gearbox.Machine, error) {
	pcfg, err := s.versionConfig("V3")
	if err != nil {
		return nil, nil, err
	}
	ds := s.Datasets()
	var data = ds[0]
	for _, c := range ds {
		if c.Name == d {
			data = c
		}
	}
	plan, err := s.plan(data, pcfg)
	if err != nil {
		return nil, nil, err
	}
	mcfg := gearbox.DefaultConfig()
	mcfg.Geo, mcfg.Tim = s.Cfg.Geo, s.Cfg.Tim
	mcfg.Workers = s.Cfg.Workers
	var spatial *telemetry.SpatialStats
	var mach *gearbox.Machine
	run := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan,
		OnMachine: func(m *gearbox.Machine) {
			mach = m
			spatial = telemetry.NewSpatialStats(m.TelemetryShape())
			m.SetTelemetry(spatial)
			if instrumentPool {
				m.Pool().SetInstrumented(true)
			}
		}}
	if _, err := apps.BFS(data.Matrix, 0, run); err != nil {
		return nil, nil, err
	}
	return spatial, mach, nil
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
		spatial, _, err := s.telemetryRun(d.Name, false)
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

// PoolStats reports the host-side balance of the worker pool that ran the
// simulation: per-worker wall time inside step loops, block counts, and the
// share of time spent in the block-sharded regions (the logic-layer merges,
// step 5's pair fold and step 6's replica reduction). Numbers are host
// measurements and vary run to run; the simulated results they accompany do
// not.
func (s *Suite) PoolStats() (Table, map[string]float64, error) {
	t := Table{
		Title:  "Pool stats: host-side worker balance (BFS on first dataset, GearboxV3)",
		Header: []string{"Worker", "Busy (ms)", "Blocks", "Busy share %"},
	}
	out := map[string]float64{}
	ds := s.Datasets()
	if len(ds) == 0 {
		return t, out, fmt.Errorf("bench: no datasets loaded")
	}
	_, mach, err := s.telemetryRun(ds[0].Name, true)
	if err != nil {
		return t, nil, err
	}
	stats, ok := mach.Pool().Stats()
	if !ok {
		return t, nil, fmt.Errorf("bench: pool instrumentation did not engage")
	}
	var total int64
	for _, b := range stats.WorkerBusyNs {
		total += b
	}
	for w := 0; w < stats.Workers; w++ {
		share := 0.0
		if total > 0 {
			share = 100 * float64(stats.WorkerBusyNs[w]) / float64(total)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("w%d", w),
			f2(float64(stats.WorkerBusyNs[w]) / 1e6),
			fmt.Sprintf("%d", stats.WorkerBlocks[w]),
			f1(share),
		})
	}
	mergeShare := 0.0
	if total > 0 {
		mergeShare = 100 * float64(stats.MergeNs) / float64(total)
	}
	out["merge_share"] = mergeShare
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d parallel regions + %d merge regions (logic merges, step 5 fold, step 6 reduce); merges took %.2f ms (%.1f%% of worker busy time)",
			stats.Regions, stats.MergeRegions, float64(stats.MergeNs)/1e6, mergeShare))

	// Dispenser occupancy: how the block dispenser balanced the skew, and
	// how much of the run step 6's replica reduction and frontier emission
	// were genuinely concurrent. Steals are blocks claimed by a worker other
	// than the one a static partition would have assigned — the work a
	// static shard would have serialized on its slowest worker.
	stealShare := 0.0
	if stats.Chunks > 0 {
		stealShare = 100 * float64(stats.Steals) / float64(stats.Chunks)
	}
	overlapShare := 0.0
	if total > 0 {
		overlapShare = 100 * float64(stats.OverlapNs) / float64(total)
	}
	out["steal_share"] = stealShare
	out["overlap_share"] = overlapShare
	t.Notes = append(t.Notes, fmt.Sprintf(
		"block dispenser: %d chunks over %d regions, %d stolen (%.1f%%); step 6 reduce/emit overlap %.2f ms (%.1f%% of busy time)",
		stats.Chunks, stats.Regions+stats.MergeRegions, stats.Steals, stealShare,
		float64(stats.OverlapNs)/1e6, overlapShare))
	t.Notes = append(t.Notes,
		"host wall-time measurements (diagnostic); simulated results are unaffected by worker count")
	return t, out, nil
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
