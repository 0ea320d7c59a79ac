package bench

import (
	"fmt"

	"gearbox/internal/apps"
	"gearbox/internal/baselines"
	"gearbox/internal/gearbox"
	"gearbox/internal/partition"
)

// Ablations probe the design choices DESIGN.md calls out, beyond the
// paper's own figures: the §4.1 row-activation overlap, the §6 dispatcher
// buffer size, the interconnect link width, and the DRAM refresh tax.
// Each runs PageRank (the densest workload) across the datasets.

// ablationRun executes PR on every dataset under a mutated machine config
// and returns the total simulated time.
func (s *Suite) ablationRun(mutate func(*gearbox.Config)) (float64, int, error) {
	pcfg, err := s.versionConfig("V3")
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	maxStall := 1
	for _, d := range s.Datasets() {
		plan, err := s.plan(d, pcfg)
		if err != nil {
			return 0, 0, err
		}
		mcfg := gearbox.DefaultConfig()
		mcfg.Geo, mcfg.Tim = s.Cfg.Geo, s.Cfg.Tim
		mutate(&mcfg)
		run := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan}
		out, err := apps.PageRank(d.Matrix, s.Cfg.PRDamping, s.Cfg.PRIters, run)
		if err != nil {
			return 0, 0, err
		}
		total += out.Stats.TimeNs()
		if r := out.Stats.MaxStallRounds(); r > maxStall {
			maxStall = r
		}
	}
	return total, maxStall, nil
}

// AblationOverlap quantifies the §4.1 Walker double-buffering: how much of
// the 50 ns row cycle the sub-clock overlap actually hides.
func (s *Suite) AblationOverlap() (Table, float64, error) {
	t := Table{
		Title:  "Ablation: row-activation/processing overlap (§4.1)",
		Header: []string{"Config", "PR total (us)", "vs overlapped"},
	}
	on, _, err := s.ablationRun(func(*gearbox.Config) {})
	if err != nil {
		return t, 0, err
	}
	off, _, err := s.ablationRun(func(c *gearbox.Config) { c.DisableOverlap = true })
	if err != nil {
		return t, 0, err
	}
	slowdown := off / on
	t.Rows = [][]string{
		{"overlapped (default)", f1(on / 1e3), "1.00"},
		{"overlap disabled", f1(off / 1e3), f2(slowdown)},
	}
	return t, slowdown, nil
}

// AblationDispatchBuffer sweeps the Dispatcher receive reservation,
// exercising the §6 stall protocol.
func (s *Suite) AblationDispatchBuffer() (Table, map[int]int, error) {
	t := Table{
		Title:  "Ablation: dispatcher buffer size (§6 stall protocol)",
		Header: []string{"Buffer (pairs)", "PR total (us)", "max stall rounds"},
	}
	stalls := map[int]int{}
	for _, pairs := range []int{16, 128, 1024, 8192} {
		pairs := pairs
		total, rounds, err := s.ablationRun(func(c *gearbox.Config) { c.DispatchBufferPairs = pairs })
		if err != nil {
			return t, nil, err
		}
		stalls[pairs] = rounds
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", pairs), f1(total / 1e3), fmt.Sprintf("%d", rounds)})
	}
	return t, stalls, nil
}

// AblationLinkWidth compares the Table 2 "64 lane" readings: 64-bit links
// versus the 64-byte flit path the reproduction defaults to (see
// mem.Timing.Lanes).
func (s *Suite) AblationLinkWidth() (Table, float64, error) {
	t := Table{
		Title:  "Ablation: interconnect link width",
		Header: []string{"Lanes (bits)", "PR total (us)", "vs 512"},
	}
	base := 0.0
	var ratio float64
	for _, lanes := range []int{512, 128, 64} {
		lanes := lanes
		total, _, err := s.ablationRun(func(c *gearbox.Config) { c.Tim.Lanes = lanes })
		if err != nil {
			return t, 0, err
		}
		if lanes == 512 {
			base = total
		}
		r := total / base
		if lanes == 64 {
			ratio = r
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", lanes), f1(total / 1e3), f2(r)})
	}
	return t, ratio, nil
}

// AblationErrorRate sweeps injected DRAM bit-error rates and measures
// PageRank accuracy degradation — the §9 future-work direction (iii)
// ("augmenting Gearbox with a reliability mechanism"): graph processing
// tolerates realistic error rates.
func (s *Suite) AblationErrorRate() (Table, map[float64]float64, error) {
	t := Table{
		Title:  "Ablation: injected bit-error rate vs PageRank accuracy (§9)",
		Header: []string{"Error rate / accumulation", "max |rank delta|", "L1 delta"},
	}
	d := s.Datasets()[0]
	pcfg, err := s.versionConfig("V3")
	if err != nil {
		return t, nil, err
	}
	plan, err := s.plan(d, pcfg)
	if err != nil {
		return t, nil, err
	}
	run := func(rate float64) ([]float32, error) {
		mcfg := gearbox.DefaultConfig()
		mcfg.Geo, mcfg.Tim = s.Cfg.Geo, s.Cfg.Tim
		mcfg.BitErrorRate = rate
		mcfg.ErrorSeed = 99
		out, err := apps.PageRank(d.Matrix, s.Cfg.PRDamping, s.Cfg.PRIters,
			apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan})
		if err != nil {
			return nil, err
		}
		return out.Ranks, nil
	}
	clean, err := run(0)
	if err != nil {
		return t, nil, err
	}
	deltas := map[float64]float64{}
	for _, rate := range []float64{1e-6, 1e-4, 1e-2} {
		ranks, err := run(rate)
		if err != nil {
			return t, nil, err
		}
		var maxD, l1 float64
		for i := range clean {
			d := float64(ranks[i] - clean[i])
			if d < 0 {
				d = -d
			}
			if d > maxD {
				maxD = d
			}
			l1 += d
		}
		deltas[rate] = maxD
		t.Rows = append(t.Rows, []string{sci(rate), sci(maxD), sci(l1)})
	}
	return t, deltas, nil
}

// AblationRefresh charges the DRAM refresh tax the evaluation otherwise
// leaves out (§9 discusses reliability, not refresh; this bounds its cost).
func (s *Suite) AblationRefresh() (Table, float64, error) {
	t := Table{
		Title:  "Ablation: DRAM refresh tax",
		Header: []string{"Config", "PR total (us)", "vs no refresh"},
	}
	off, _, err := s.ablationRun(func(*gearbox.Config) {})
	if err != nil {
		return t, 0, err
	}
	on, _, err := s.ablationRun(func(c *gearbox.Config) { c.ModelRefresh = true })
	if err != nil {
		return t, 0, err
	}
	slowdown := on / off
	t.Rows = [][]string{
		{"no refresh (paper)", f1(off / 1e3), "1.00"},
		{"tREFI 3.9us / tRFC 350ns", f1(on / 1e3), f2(slowdown)},
	}
	return t, slowdown, nil
}

// AblationBalance compares the paper's vertex-count splitting against the
// reproduction-added NNZ-balanced (LPT) assignment, which attacks the
// hot-short-column imbalance the Utilization table measures.
func (s *Suite) AblationBalance() (Table, float64, error) {
	t := Table{
		Title:  "Ablation: column-to-SPU balancing (PR, GearboxV3)",
		Header: []string{"Assignment", "PR total (us)", "vs vertex-balanced"},
	}
	run := func(b partition.Balance) (float64, error) {
		pcfg, err := s.versionConfig("V3")
		if err != nil {
			return 0, err
		}
		pcfg.Balance = b
		total := 0.0
		for _, d := range s.Datasets() {
			r, err := s.Run("PR", d, pcfg, s.Cfg.Tim)
			if err != nil {
				return 0, err
			}
			total += r.Stats.TimeNs()
		}
		return total, nil
	}
	vertex, err := run(partition.VertexBalanced)
	if err != nil {
		return t, 0, err
	}
	nnz, err := run(partition.NNZBalanced)
	if err != nil {
		return t, 0, err
	}
	speedup := vertex / nnz
	t.Rows = [][]string{
		{"vertex-balanced (paper §6)", f1(vertex / 1e3), "1.00"},
		{"nnz-balanced (LPT)", f1(nnz / 1e3), f2(speedup)},
	}
	t.Notes = append(t.Notes,
		"negative result: the accumulation steps' critical path is set by single hot vertices, which no assignment can split — only the long threshold (Fig 16a) does; this vindicates the paper's randomize-and-split choice")
	return t, speedup, nil
}

// Amortization quantifies §6's "the one-time cost of pre-processing and data
// placement has typically been considered acceptable": how many runs of each
// application repay the offload + reorder against the GPU.
func (s *Suite) Amortization() (Table, map[string]float64, error) {
	gpu := baselines.P100Gunrock()
	o := baselines.DefaultOffload()
	t := Table{
		Title:  "Amortization (§6): runs needed to repay offload + pre-processing",
		Header: []string{"App", "one-time cost (ms)", "per-run gain (ms)", "runs to amortize"},
	}
	out := map[string]float64{}
	for _, app := range apps.Names {
		var oneTime, gain float64
		var runs float64
		for _, d := range s.Datasets() {
			r, err := s.RunVersion(app, d, "V3")
			if err != nil {
				return t, nil, err
			}
			oneTime += o.TotalNs(r.Work)
			gain += gpu.TimeNs(r.Work) - r.Stats.TimeNs()
		}
		if gain > 0 {
			runs = oneTime / gain
		}
		out[app] = runs
		t.Rows = append(t.Rows, []string{app, f2(oneTime / 1e6), f2(gain / 1e6), f1(runs)})
	}
	return t, out, nil
}
