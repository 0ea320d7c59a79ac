// Command gearbox-bench regenerates every table and figure of the paper's
// evaluation section (§7) and prints them as aligned text tables.
//
// Usage:
//
//	gearbox-bench [-size tiny|small|medium] [-exp table3,fig12,...]
//
// -size medium is the reporting configuration used by EXPERIMENTS.md (takes
// a few minutes); -size small finishes in tens of seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gearbox/internal/bench"
	"gearbox/internal/gen"
)

// cpuProfiling tracks whether a CPU profile is being collected, so fatal can
// flush it before os.Exit discards the buffered samples.
var cpuProfiling bool

func main() {
	size := flag.String("size", "small", "dataset size tier: tiny, small, medium")
	exp := flag.String("exp", "all", "comma-separated experiments (table3,fig5,fig12,fig13,fig14a,fig14b,fig15,table5,fig16a,fig16b,fig17a,fig17b,table6,fig18, plus extensions perf,scaling,utilization,heatmap,ablation-overlap,ablation-buffer,ablation-linkwidth,ablation-refresh,ablation-errors) or 'all'")
	workers := flag.Int("workers", 0, "goroutines that prewarm the -exp all cells, each running one simulation at a time (0: GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write the perf experiment's machine-readable report (BENCH_perf.json) to this file")
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

	cfg := bench.DefaultConfig()
	switch *size {
	case "tiny":
		cfg = bench.TinyConfig()
	case "small":
		// default
	case "medium":
		cfg.Size = gen.Medium
	default:
		fmt.Fprintf(os.Stderr, "gearbox-bench: unknown size %q\n", *size)
		os.Exit(2)
	}
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		fatal(err)
	}

	if *exp == "all" {
		if err := suite.Prewarm(*workers); err != nil {
			fatal(err)
		}
		tables, err := suite.All()
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		return
	}

	runners := map[string]func() (bench.Table, error){
		"table3": suite.Table3,
		"fig5":   suite.Fig5,
		"fig12":  func() (bench.Table, error) { t, _, err := suite.Fig12(); return t, err },
		"fig13":  func() (bench.Table, error) { t, _, err := suite.Fig13(); return t, err },
		"fig14a": func() (bench.Table, error) { t, _, err := suite.Fig14a(); return t, err },
		"fig14b": func() (bench.Table, error) { t, _, err := suite.Fig14b(); return t, err },
		"fig15":  func() (bench.Table, error) { t, _, err := suite.Fig15(); return t, err },
		"table5": func() (bench.Table, error) { t, _, err := suite.Table5(); return t, err },
		"fig16a": func() (bench.Table, error) { t, _, err := suite.Fig16a(); return t, err },
		"fig16b": func() (bench.Table, error) { t, _, err := suite.Fig16b(); return t, err },
		"fig17a": func() (bench.Table, error) { t, _, err := suite.Fig17a(); return t, err },
		"fig17b": func() (bench.Table, error) { t, _, err := suite.Fig17b(); return t, err },
		"table6": func() (bench.Table, error) { t, _, err := suite.Table6(); return t, err },
		"fig18":  func() (bench.Table, error) { t, _, err := suite.Fig18(); return t, err },
		// Extensions beyond the paper's own figures.
		"scaling":     func() (bench.Table, error) { t, _, err := suite.Scaling(); return t, err },
		"utilization": func() (bench.Table, error) { t, _, err := suite.Utilization(); return t, err },
		"ablation-overlap": func() (bench.Table, error) {
			t, _, err := suite.AblationOverlap()
			return t, err
		},
		"ablation-buffer": func() (bench.Table, error) {
			t, _, err := suite.AblationDispatchBuffer()
			return t, err
		},
		"ablation-linkwidth": func() (bench.Table, error) {
			t, _, err := suite.AblationLinkWidth()
			return t, err
		},
		"ablation-refresh": func() (bench.Table, error) {
			t, _, err := suite.AblationRefresh()
			return t, err
		},
		"ablation-errors": func() (bench.Table, error) {
			t, _, err := suite.AblationErrorRate()
			return t, err
		},
		"ablation-balance": func() (bench.Table, error) {
			t, _, err := suite.AblationBalance()
			return t, err
		},
		"amortization": func() (bench.Table, error) {
			t, _, err := suite.Amortization()
			return t, err
		},
		"geometry": func() (bench.Table, error) {
			t, _, err := suite.SweepGeometry()
			return t, err
		},
		"heatmap": func() (bench.Table, error) {
			t, _, err := suite.Heatmap()
			return t, err
		},
		"perf": func() (bench.Table, error) {
			t, rep, err := suite.Perf()
			if err != nil {
				return t, err
			}
			if *jsonPath != "" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					return t, err
				}
				defer f.Close()
				if err := rep.WriteJSON(f); err != nil {
					return t, err
				}
			}
			return t, nil
		},
	}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gearbox-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		t, err := run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t.String())
	}
}

func fatal(err error) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	fmt.Fprintln(os.Stderr, "gearbox-bench:", err)
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
