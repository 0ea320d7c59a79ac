package bench

import (
	"strings"
	"sync"
	"testing"

	"gearbox/internal/partition"
)

// The suite is expensive to build; share one Tiny instance across tests.
var (
	tinyOnce  sync.Once
	tinySuite *Suite
	tinyErr   error
)

func suite(t *testing.T) *Suite {
	t.Helper()
	tinyOnce.Do(func() {
		tinySuite, tinyErr = NewSuite(TinyConfig())
		if tinyErr == nil {
			tinyErr = tinySuite.Prewarm(0)
		}
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinySuite
}

func TestTable3HasFiveDatasets(t *testing.T) {
	tb, err := suite(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	if tb.Rows[0][0] != "holly" || tb.Rows[4][0] != "twitter" {
		t.Fatalf("dataset order wrong: %v", tb.Rows)
	}
}

func TestFig5CoversAllDatasets(t *testing.T) {
	tb, err := suite(t).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range tb.Rows {
		seen[r[0]] = true
	}
	if len(seen) != 5 {
		t.Fatalf("histograms for %d datasets, want 5", len(seen))
	}
}

func TestFig12GearboxWins(t *testing.T) {
	_, data, err := suite(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: GearboxV3 beats the GPU on average, and the best case
	// is clearly better than the average.
	if data.AvgGPU <= 1 {
		t.Fatalf("average speedup vs Gunrock = %.2f, want > 1", data.AvgGPU)
	}
	if data.MaxGPU < data.AvgGPU {
		t.Fatalf("max %.2f below average %.2f", data.MaxGPU, data.AvgGPU)
	}
	for app, v := range data.VsSpaceA {
		if v <= 0 {
			t.Fatalf("%s: non-positive SpaceA speedup %v", app, v)
		}
	}
}

func TestFig13Ordering(t *testing.T) {
	_, data, err := suite(t).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// The load-bearing Table 4 ordering: the full hybrid designs beat naive
	// column partitioning on average. (V0's paper-scale collapse is shown
	// via the extrapolation note; V2 vs V3 differ by scale-compressed
	// margins — see EXPERIMENTS.md.)
	if !(data.Avg["V2"] > data.Avg["V1"]) {
		t.Fatalf("V2 (%.2f) must beat V1 (%.2f)", data.Avg["V2"], data.Avg["V1"])
	}
	if !(data.Avg["V3"] > data.Avg["V1"]) {
		t.Fatalf("V3 (%.2f) must beat V1 (%.2f)", data.Avg["V3"], data.Avg["V1"])
	}
	if data.Avg["V3"] < 0.75*data.Avg["V2"] {
		t.Fatalf("V3 (%.2f) too far below V2 (%.2f)", data.Avg["V3"], data.Avg["V2"])
	}
	for _, v := range append([]string{"V0"}, Versions...) {
		for app, s := range data.Speedup[v] {
			if s <= 0 {
				t.Fatalf("%s/%s: speedup %v", v, app, s)
			}
		}
	}
}

func TestFig14aStep3And5Dominate(t *testing.T) {
	_, data, err := suite(t).Fig14a()
	if err != nil {
		t.Fatal(err)
	}
	// §7.4: "most of the execution time is spent on LocalAccumulations and
	// RemoteAccumulations" — steps 3 and 5 outweigh steps 1 and 6 for the
	// heavy apps.
	for _, app := range []string{"PR", "SSSP"} {
		f := data.Frac["V3"][app]
		if f[2]+f[4] < f[0]+f[5] {
			t.Fatalf("%s: steps 3+5 (%.3f) below steps 1+6 (%.3f)", app, f[2]+f[4], f[0]+f[5])
		}
		var sum float64
		for _, v := range f {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: step fractions sum to %.3f", app, sum)
		}
	}
}

func TestFig14bEnergyReduction(t *testing.T) {
	_, data, err := suite(t).Fig14b()
	if err != nil {
		t.Fatal(err)
	}
	for app, ratio := range data.Ratio {
		// Paper: ~97% average reduction. Every app meets it even at tiny
		// scale (98.1-98.6% measured), so the claim is checked per app.
		if ratio >= 0.03 {
			t.Fatalf("%s: Gearbox energy is %.2f%% of GPU, want < 3%% (the paper's 97%% reduction)", app, 100*ratio)
		}
		if share := data.RowActShare[app]; share < 0.5 {
			t.Fatalf("%s: row activation share %.2f, want dominant (§7.4)", app, share)
		}
	}
}

func TestFig15Positive(t *testing.T) {
	_, data, err := suite(t).Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for app, v := range data.PerStackVsIdealGPU {
		if v <= 0 {
			t.Fatalf("%s: per-stack vs ideal GPU %v", app, v)
		}
		if data.VsIdealLogicLayer[app] <= 0 {
			t.Fatalf("%s: vs ideal logic layer %v", app, data.VsIdealLogicLayer[app])
		}
	}
}

func TestTable5TracksOurSpeedup(t *testing.T) {
	_, data, err := suite(t).Table5()
	if err != nil {
		t.Fatal(err)
	}
	// Tesseract-class systems are slower than Graphicionado per stack, so
	// Gearbox's relative speedup over them must be larger.
	if data.PerStack["Tesseract"] <= data.PerStack["Graphicionado"] {
		t.Fatalf("per-stack ordering wrong: %+v", data.PerStack)
	}
	if data.PerArea["Tesseract"] <= 0 || data.PerArea["GraphP"] <= 0 {
		t.Fatalf("per-area missing: %+v", data.PerArea)
	}
}

func TestFig16aThresholdHelps(t *testing.T) {
	_, data, err := suite(t).Fig16a()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 16a: labeling a small fraction long significantly helps vs none,
	// for the skewed datasets' apps (geomean across apps must improve).
	var with, base []float64
	for _, app := range []string{"BFS", "PR", "SSSP"} {
		base = append(base, data.Speedup["0.00%"][app])
		with = append(with, data.Speedup["0.01%"][app])
	}
	if geomean(with) <= geomean(base) {
		t.Fatalf("long threshold did not help: %.3f vs %.3f", geomean(with), geomean(base))
	}
}

func TestFig16bPlacementSpreadsLoad(t *testing.T) {
	_, data, err := suite(t).Fig16b()
	if err != nil {
		t.Fatal(err)
	}
	// Spreading consecutive columns must not lose to packing them into one
	// subarray on average (paper: SameBank 22.3x over SameSubarray at full
	// scale; compressed here).
	var spread, packed []float64
	for _, app := range []string{"BFS", "PR", "SSSP"} {
		packed = append(packed, data.Speedup[partition.SameSubarray][app])
		spread = append(spread, data.Speedup[partition.Distributed][app])
	}
	if geomean(spread) < geomean(packed)*0.95 {
		t.Fatalf("distributed placement lost to same-subarray: %.3f vs %.3f", geomean(spread), geomean(packed))
	}
}

func TestFig17aPowerAdvantage(t *testing.T) {
	_, data, err := suite(t).Fig17a()
	if err != nil {
		t.Fatal(err)
	}
	// §7.7: 75% power reduction (130 W -> ~33 W).
	if data.GearboxWatts >= data.GPUWatts/2 {
		t.Fatalf("Gearbox %.1f W vs GPU %.1f W: want large reduction", data.GearboxWatts, data.GPUWatts)
	}
	if data.GearboxWatts < 20 || data.GearboxWatts > 45 {
		t.Fatalf("Gearbox power %.1f W outside the ~33 W band", data.GearboxWatts)
	}
}

func TestFig17bBudgetBinds(t *testing.T) {
	_, data, err := suite(t).Fig17b()
	if err != nil {
		t.Fatal(err)
	}
	if data.Scale[10] >= data.Scale[40] {
		t.Fatalf("10W scale %.2f not below 40W scale %.2f", data.Scale[10], data.Scale[40])
	}
	for _, app := range []string{"BFS", "PR", "SSSP"} {
		if data.Speedup[10][app] > data.Speedup[40][app] {
			t.Fatalf("%s: 10W faster than 40W", app)
		}
		if data.Speedup[10][app] <= 0 {
			t.Fatalf("%s: non-positive budgeted speedup", app)
		}
	}
}

func TestTable6Notes(t *testing.T) {
	tb, _, err := suite(t).Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "overhead vs Fulcrum") {
		t.Fatalf("missing overhead note: %v", tb.Notes)
	}
}

func TestFig18Shape(t *testing.T) {
	_, data, err := suite(t).Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if data.GeomeanGearboxOverBankSIMD < 1.5 {
		t.Fatalf("Gearbox over bank SIMD = %.2f, want > 1.5 (paper: 4.4)", data.GeomeanGearboxOverBankSIMD)
	}
	// Float kernels are impossible on the bitwise SIMD machine.
	if v := data.PerStackVsGPU["AXPY"]["Row-wide bitwise SIMD"]; v != 0 {
		t.Fatalf("bitwise SIMD ran AXPY: %v", v)
	}
	// Gearbox clearly beats the GPU per stack on the irregular kernels.
	for _, k := range []string{"HD_SPMV", "Bitmap"} {
		if data.PerStackVsGPU[k]["Gearbox"] < 10 {
			t.Fatalf("%s: Gearbox per-stack %v, want >> 1", k, data.PerStackVsGPU[k]["Gearbox"])
		}
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	tables, err := suite(t).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 14 {
		t.Fatalf("tables = %d, want 14", len(tables))
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
		if !strings.Contains(tb.String(), tb.Title) {
			t.Fatal("String() must include the title")
		}
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := suite(t)
	d := s.Datasets()[0]
	a, err := s.RunVersion("BFS", d, "V3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunVersion("BFS", d, "V3")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not cached")
	}
}

func TestVersionConfigRejectsUnknown(t *testing.T) {
	s := suite(t)
	if _, err := s.RunVersion("BFS", s.Datasets()[0], "V9"); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := s.Run("NOPE", s.Datasets()[0], partition.DefaultConfig(), s.Cfg.Tim); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAblationOverlap(t *testing.T) {
	_, slowdown, err := suite(t).AblationOverlap()
	if err != nil {
		t.Fatal(err)
	}
	if slowdown <= 1 {
		t.Fatalf("disabling overlap sped things up: %.2f", slowdown)
	}
}

func TestAblationDispatchBuffer(t *testing.T) {
	_, stalls, err := suite(t).AblationDispatchBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if stalls[16] < stalls[8192] {
		t.Fatalf("smaller buffer produced fewer stall rounds: %+v", stalls)
	}
	if stalls[16] <= 1 {
		t.Fatalf("16-pair buffer never stalled: %+v", stalls)
	}
}

func TestAblationLinkWidth(t *testing.T) {
	_, ratio, err := suite(t).AblationLinkWidth()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1 {
		t.Fatalf("narrower links were faster: %.2f", ratio)
	}
}

func TestAblationRefresh(t *testing.T) {
	_, slowdown, err := suite(t).AblationRefresh()
	if err != nil {
		t.Fatal(err)
	}
	// tRFC/tREFI = 350/3900 => ~9.9% stretch upper bound on busy phases.
	if slowdown < 1.0 || slowdown > 1.12 {
		t.Fatalf("refresh slowdown = %.3f, want ~1.0-1.1", slowdown)
	}
}

func TestScalingMultiStack(t *testing.T) {
	_, speedups, err := suite(t).Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if speedups[1] != 1 {
		t.Fatalf("1-stack speedup = %v", speedups[1])
	}
	if speedups[4] <= 1 {
		t.Fatalf("4 stacks did not speed up: %v", speedups[4])
	}
	// Communication must eventually erode scaling: 16 stacks below ideal.
	if speedups[16] >= 16 {
		t.Fatalf("16-stack speedup %v is superlinear", speedups[16])
	}
}

func TestUtilizationImbalance(t *testing.T) {
	_, data, err := suite(t).Utilization()
	if err != nil {
		t.Fatal(err)
	}
	for app, im := range data {
		// Imbalance is max/mean >= 1 whenever work exists.
		if im < 1 {
			t.Fatalf("%s: imbalance %v < 1", app, im)
		}
	}
}

func TestAblationErrorRate(t *testing.T) {
	_, deltas, err := suite(t).AblationErrorRate()
	if err != nil {
		t.Fatal(err)
	}
	// Low-mantissa flips at realistic rates barely perturb ranks; higher
	// rates perturb more.
	if deltas[1e-6] > deltas[1e-2] {
		t.Fatalf("error impact not monotone: %v", deltas)
	}
	// At 1e-6 per accumulation the worst rank deviation stays far below a
	// typical rank magnitude (~1/n).
	if deltas[1e-6] > 1e-3 {
		t.Fatalf("tiny error rate caused large deviation: %v", deltas[1e-6])
	}
}

func TestAblationBalance(t *testing.T) {
	tb, speedup, err := suite(t).AblationBalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The measured (negative) finding: assignment-level balancing cannot
	// beat the paper's randomize-and-split because hot single vertices set
	// the critical path; the effect stays within a moderate band either way.
	if speedup < 0.5 || speedup > 1.5 {
		t.Fatalf("balance ablation out of band: %.2f", speedup)
	}
	if len(tb.Notes) == 0 {
		t.Fatal("missing the negative-result note")
	}
}

func TestAmortization(t *testing.T) {
	_, runs, err := suite(t).Amortization()
	if err != nil {
		t.Fatal(err)
	}
	for app, r := range runs {
		if r < 0 {
			t.Fatalf("%s: negative amortization %v", app, r)
		}
	}
	// The heavy apps repay the one-time cost in a bounded number of runs.
	if runs["PR"] <= 0 {
		t.Fatal("PR never amortizes despite beating the GPU")
	}
}

func TestSweepGeometry(t *testing.T) {
	_, speedups, err := suite(t).SweepGeometry()
	if err != nil {
		t.Fatal(err)
	}
	if speedups[1] != 1 {
		t.Fatalf("1-layer speedup = %v", speedups[1])
	}
	if speedups[8] < speedups[1] {
		t.Fatalf("more layers slowed the stack down: %v", speedups)
	}
}
