package gearbox

import (
	"reflect"
	"testing"

	"gearbox/internal/semiring"
	"gearbox/internal/telemetry"
)

// attachSpatial wires a fresh SpatialStats sink to a machine and returns it.
func attachSpatial(m *Machine) *telemetry.SpatialStats {
	sp := telemetry.NewSpatialStats(m.TelemetryShape())
	m.SetTelemetry(sp)
	return sp
}

// TestTelemetryBitIdenticalAcrossWorkers is the telemetry determinism
// contract: with a sink attached, every spatial counter — per-SPU busy and
// accumulation counts, per-ring-segment and per-TSV words, dispatcher
// high-water marks, frontier totals — matches its iterateGolden digest for
// every Table 4 version. The worker-pool engine produced those digests at
// every worker count; the name dates from when this test compared them.
func TestTelemetryBitIdenticalAcrossWorkers(t *testing.T) {
	m := testMatrix(t, 41)
	entries := randomFrontier(m.NumRows, 50, 13)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			sp := attachSpatial(mach)
			runChained(t, mach, entries, 3)
			checkGolden(t, "telemetry/"+vc.name, digestTelemetry(sp))
		})
	}
}

// TestTelemetryMatchesIterStats cross-checks the spatial breakdowns against
// the machine's global aggregates: summing a per-SPU array must reproduce
// the corresponding IterStats total, and the iteration/frontier bookkeeping
// must match what Iterate reported.
func TestTelemetryMatchesIterStats(t *testing.T) {
	m := testMatrix(t, 42)
	entries := randomFrontier(m.NumRows, 50, 13)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			sp := attachSpatial(mach)
			stats, _ := runChained(t, mach, entries, 3)

			var local, remote, long, frontierOut int64
			for _, st := range stats {
				local += st.LocalAccums
				remote += st.RemoteAccums
				long += st.LongAccums
				frontierOut += st.FrontierOut
			}
			sum := func(xs []int64) (s int64) {
				for _, x := range xs {
					s += x
				}
				return
			}
			if got := sum(sp.LocalAccums); got != local {
				t.Errorf("per-SPU local accums sum %d, IterStats total %d", got, local)
			}
			if got := sum(sp.RemoteAccums); got != remote {
				t.Errorf("per-SPU remote accums sum %d, IterStats total %d", got, remote)
			}
			if got := sum(sp.LongAccums); got != long {
				t.Errorf("per-SPU long accums sum %d, IterStats total %d", got, long)
			}
			if sp.Iterations != len(stats) {
				t.Errorf("sink saw %d iterations, machine ran %d", sp.Iterations, len(stats))
			}
			if sp.FrontierOut != frontierOut {
				t.Errorf("frontier out %d, IterStats total %d", sp.FrontierOut, frontierOut)
			}
			if sp.FrontierIn == 0 || sp.MaxFrontier == 0 {
				t.Error("frontier input totals not recorded")
			}
			// Compute steps carry busy time; steps 1 and 4 rows must stay zero.
			for _, step := range []int{2, 3} {
				busy := 0.0
				for _, v := range sp.SPUBusyNs[step-1] {
					busy += v
				}
				if busy == 0 {
					t.Errorf("step %d recorded no SPU busy time", step)
				}
			}
			for _, step := range []int{1, 4} {
				for k, v := range sp.SPUBusyNs[step-1] {
					if v != 0 {
						t.Fatalf("step %d is not a compute step but SPU %d shows %v busy ns", step, k, v)
					}
				}
			}
		})
	}
}

// TestTelemetryLinkAndDispatchCounters pins the interconnect-facing half on
// a remote-heavy V3 run: dispatched pairs must surface as ring/TSV words in
// steps 3-4 and as a non-zero dispatcher high-water mark.
func TestTelemetryLinkAndDispatchCounters(t *testing.T) {
	m := testMatrix(t, 43)
	cfg := versionConfigs()[3].cfg // V3
	mach := buildMachine(t, m, cfg, semiring.PlusTimes{})
	sp := attachSpatial(mach)
	stats, _ := runChained(t, mach, randomFrontier(m.NumRows, 60, 7), 3)

	var remote int64
	for _, st := range stats {
		remote += st.RemoteAccums
	}
	if remote == 0 {
		t.Skip("workload produced no remote traffic; counters cannot be exercised")
	}
	sums := func(m [][]int64) (s int64) {
		for _, row := range m {
			for _, v := range row {
				s += v
			}
		}
		return
	}
	if sums(sp.RingWords) == 0 {
		t.Error("remote dispatches left no ring-segment words")
	}
	if sums(sp.TSVWords) == 0 {
		t.Error("remote dispatches left no TSV words")
	}
	var hw int64
	for _, v := range sp.DispatchHighWater {
		if v > hw {
			hw = v
		}
	}
	if hw == 0 {
		t.Error("dispatcher high-water mark never rose above zero")
	}
}

// TestTelemetryDoesNotPerturbResults: attaching a sink must not change any
// simulated output — stats, frontiers, or the clock.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	m := testMatrix(t, 44)
	entries := randomFrontier(m.NumRows, 50, 19)
	cfg := versionConfigs()[3].cfg
	plain := buildMachine(t, m, cfg, semiring.PlusTimes{})
	observed := buildMachine(t, m, cfg, semiring.PlusTimes{})
	attachSpatial(observed)
	stA, frA := runChained(t, plain, entries, 3)
	stB, frB := runChained(t, observed, entries, 3)
	if !reflect.DeepEqual(stA, stB) {
		t.Fatal("attaching telemetry changed IterStats")
	}
	if !reflect.DeepEqual(frA, frB) {
		t.Fatal("attaching telemetry changed frontiers")
	}
	if plain.NowNs() != observed.NowNs() {
		t.Fatal("attaching telemetry changed the simulated clock")
	}
}

// TestMaxStallRoundsEmptyRun pins the satellite fix: no iterations means 0
// (distinguishable from "ran and never stalled", which reports 1).
func TestMaxStallRoundsEmptyRun(t *testing.T) {
	if got := (RunStats{}).MaxStallRounds(); got != 0 {
		t.Fatalf("empty RunStats MaxStallRounds = %d, want 0", got)
	}
	var r RunStats
	r.Iterations = append(r.Iterations, IterStats{})
	r.Iterations[0].Steps[0].StallRounds = 1
	if got := r.MaxStallRounds(); got != 1 {
		t.Fatalf("single-stall run MaxStallRounds = %d, want 1", got)
	}
}
