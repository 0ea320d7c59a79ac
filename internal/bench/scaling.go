package bench

import (
	"fmt"

	"gearbox/internal/gearbox"
	"gearbox/internal/multistack"
	"gearbox/internal/semiring"
)

// Scaling evaluates the §6 multi-stack extension (implemented in
// internal/multistack as the paper's stated future work): PageRank-style
// dense iterations on 1-16 stacks, reporting the parallel-phase speedup and
// the all-reduce share.
func (s *Suite) Scaling() (Table, map[int]float64, error) {
	t := Table{
		Title:  "Scaling (§6 extension): multi-stack Gearbox, dense SpMV iteration",
		Header: []string{"Stacks", "iter time (us)", "speedup", "reduce share"},
		Notes:  []string{"block-partitioned columns per stack, ring all-reduce over an NVLink3-class fabric"},
	}
	d := s.Datasets()[1] // orkut: the densest social stand-in
	entries := make([]gearbox.FrontierEntry, d.Matrix.NumRows)
	for i := range entries {
		entries[i] = gearbox.FrontierEntry{Index: int32(i), Value: 1}
	}

	speedups := map[int]float64{}
	base := 0.0
	for _, stacks := range []int{1, 2, 4, 8, 16} {
		cfg := multistack.DefaultConfig()
		cfg.Stacks = stacks
		cfg.Machine.Geo, cfg.Machine.Tim = s.Cfg.Geo, s.Cfg.Tim
		cfg.Partition.LongFrac = s.Cfg.LongFrac
		dev, err := multistack.New(d.Matrix, semiring.PlusTimes{}, cfg)
		if err != nil {
			return t, nil, err
		}
		_, st, err := dev.Iterate(entries)
		if err != nil {
			return t, nil, err
		}
		total := st.TimeNs()
		if stacks == 1 {
			base = total
		}
		speedups[stacks] = base / total
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", stacks),
			f1(total / 1e3),
			f2(speedups[stacks]),
			f3(st.ReduceTimeNs / total),
		})
	}
	return t, speedups, nil
}
