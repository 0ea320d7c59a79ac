package bench

import (
	"fmt"

	"gearbox/internal/apps"
	"gearbox/internal/gearbox"
	"gearbox/internal/partition"
)

// SweepGeometry scales the stack's memory layers (and with them the SPU
// count) and measures PageRank on the first dataset: the intra-stack
// parallelism study behind the paper's "Gearbox provides high parallelism in
// one stack" claim (§6). Fewer layers also shrink capacity; only timing is
// compared here.
func (s *Suite) SweepGeometry() (Table, map[int]float64, error) {
	t := Table{
		Title:  "Geometry sweep: memory layers vs PageRank time (GearboxV3)",
		Header: []string{"Layers", "Compute SPUs", "PR total (us)", "speedup vs 1 layer"},
	}
	d := s.Datasets()[0]
	pcfg, err := s.versionConfig("V3")
	if err != nil {
		return t, nil, err
	}

	speedups := map[int]float64{}
	base := 0.0
	for _, layers := range []int{1, 2, 4, 8} {
		geo := s.Cfg.Geo
		geo.Layers = layers
		if err := geo.Validate(); err != nil {
			return t, nil, err
		}
		plan, err := partition.Build(d.Matrix, geo, pcfg)
		if err != nil {
			return t, nil, err
		}
		mcfg := gearbox.DefaultConfig()
		mcfg.Geo, mcfg.Tim = geo, s.Cfg.Tim
		out, err := apps.PageRank(d.Matrix, s.Cfg.PRDamping, s.Cfg.PRIters,
			apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan})
		if err != nil {
			return t, nil, err
		}
		total := out.Stats.TimeNs()
		if layers == 1 {
			base = total
		}
		speedups[layers] = base / total
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", layers),
			fmt.Sprintf("%d", geo.TotalComputeSPUs()),
			f1(total / 1e3),
			f2(speedups[layers]),
		})
	}
	t.Notes = append(t.Notes,
		"extra layers help only while columns/SPU > 1 and the hottest column is not the critical path; run at -size medium for the regime where parallelism binds")
	return t, speedups, nil
}
