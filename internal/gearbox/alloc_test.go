//go:build !race

// AllocsPerRun measurements are meaningless under the race detector (its
// instrumentation allocates), so this file is excluded from -race runs; CI
// covers it through the non-race benchmark smoke step.

package gearbox

import (
	"testing"

	"gearbox/internal/obs"
	"gearbox/internal/semiring"
	"gearbox/internal/telemetry"
)

// TestIterateSteadyStateAllocs is the tentpole's regression test: once an
// application recycles its frontiers and extracts entries through a reused
// buffer, a full DistributeFrontier → Iterate → AppendEntries cycle allocates
// nothing. Swept over the Table 4 versions so the V2 logic-layer path, the
// V3 replica reduction and the hypothetical-V2 short fold all stay on the
// pooled-scratch path.
func TestIterateSteadyStateAllocs(t *testing.T) {
	m := testMatrix(t, 31)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			// Warm the pools: first iterations grow emit buckets, receive
			// buffers, frontier shells and the entry buffer to steady-state
			// capacity.
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}

// TestIterateSteadyStateAllocsTelemetry is the telemetry tentpole's overhead
// contract: attaching a SpatialStats sink keeps the steady-state cycle
// allocation-free. The sink's accumulate methods write into pre-sized arrays
// and the machine passes only concrete slices through the interface, so
// nothing boxes or grows.
func TestIterateSteadyStateAllocsTelemetry(t *testing.T) {
	m := testMatrix(t, 33)
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			sp := telemetry.NewSpatialStats(mach.TelemetryShape())
			mach.SetTelemetry(sp)
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration with telemetry allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}

// TestIterateSteadyStateAllocsObsSink is the observability tentpole's
// overhead contract: a registry-backed metrics sink (the bridge gearbox-serve
// leaves attached to every pooled machine) keeps the steady-state cycle
// allocation-free. Every handle is resolved at sink construction, so the
// callbacks fold borrowed slices into locals and finish with plain atomic
// adds — nothing boxes, grows, or touches the registry maps.
func TestIterateSteadyStateAllocsObsSink(t *testing.T) {
	m := testMatrix(t, 33)
	sink := telemetry.NewObsSink(obs.NewRegistry())
	for _, vc := range versionConfigs() {
		t.Run(vc.name, func(t *testing.T) {
			mach := buildMachine(t, m, vc.cfg, semiring.PlusTimes{})
			mach.SetTelemetry(sink)
			entries := randomFrontier(m.NumRows, 60, 7)
			var buf []FrontierEntry
			cycle := func() {
				f, err := mach.DistributeFrontier(entries)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := mach.Iterate(f, IterateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mach.Recycle(f)
				buf = next.AppendEntries(buf[:0])
				mach.Recycle(next)
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
				t.Fatalf("steady-state iteration with obs sink allocates: %.1f allocs/op, want ~0", avg)
			}
		})
	}
}
