package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// scrubHost zeroes the host-measured fields (wall time, allocation volume),
// which legitimately vary run to run. What remains is the simulated
// content, which must be bit-identical.
func scrubHost(r PerfReport) PerfReport {
	es := make([]PerfEntry, len(r.Entries))
	copy(es, r.Entries)
	for i := range es {
		es[i].HostWallNs, es[i].HostAllocBytes, es[i].HostMallocs = 0, 0, 0
	}
	r.Entries = es
	return r
}

// TestPerfReport pins the perf experiment: full dataset x app coverage, a
// valid JSON round trip, and determinism (two runs from independent suites
// produce identical simulated columns — the property that makes
// BENCH_perf.json diffable as a regression fence; host columns are measured,
// not simulated, and are excluded).
func TestPerfReport(t *testing.T) {
	run := func() (Table, PerfReport) {
		s, err := NewSuite(TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		tb, rep, err := s.Perf()
		if err != nil {
			t.Fatal(err)
		}
		return tb, rep
	}
	tb, rep := run()
	if len(rep.Entries) != 25 { // 5 datasets x 5 apps
		t.Fatalf("entries = %d, want 25", len(rep.Entries))
	}
	if len(tb.Rows) != 25 {
		t.Fatalf("table rows = %d, want 25", len(tb.Rows))
	}
	for _, e := range rep.Entries {
		if e.TimeNs <= 0 || e.EnergyJ <= 0 || e.Iterations == 0 || e.ProcessedNNZ == 0 || e.GTEPS <= 0 {
			t.Fatalf("degenerate entry: %+v", e)
		}
		if e.HostWallNs <= 0 || e.HostAllocBytes <= 0 || e.HostMallocs <= 0 {
			t.Fatalf("host columns unmeasured: %+v", e)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatal("JSON round trip lost data")
	}

	_, rep2 := run()
	if !reflect.DeepEqual(scrubHost(rep), scrubHost(rep2)) {
		t.Fatal("perf report is not deterministic across suites")
	}
	checkCommittedPerf(t, rep)
}

// committedPerf is the perf trajectory committed at the repository root.
const committedPerf = "../../BENCH_perf.json"

// checkCommittedPerf is the trajectory's regression fence: the simulated
// columns of a fresh tiny-tier report must equal the committed baseline
// exactly (JSON floats round-trip bit for bit), so a change that moves a
// simulated result fails here instead of only warning in CI. A deliberate
// modeling change regenerates the baseline with
// `go run ./cmd/gearbox-bench -size tiny -exp perf -json BENCH_perf.json`.
func checkCommittedPerf(t *testing.T, rep PerfReport) {
	t.Helper()
	data, err := os.ReadFile(committedPerf)
	if err != nil {
		t.Fatal(err)
	}
	var base PerfReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("%s: %v", committedPerf, err)
	}
	if base.Size != rep.Size || len(base.Entries) != len(rep.Entries) {
		t.Fatalf("%s: size %q with %d entries, fresh report has size %q with %d", committedPerf,
			base.Size, len(base.Entries), rep.Size, len(rep.Entries))
	}
	for i, b := range base.Entries {
		e := rep.Entries[i]
		if b.Dataset != e.Dataset || b.App != e.App || b.Version != e.Version {
			t.Fatalf("entry %d: committed %s/%s/%s, fresh %s/%s/%s", i, b.Dataset, b.App, b.Version, e.Dataset, e.App, e.Version)
		}
		if b.TimeNs != e.TimeNs || b.EnergyJ != e.EnergyJ || b.Iterations != e.Iterations || b.ProcessedNNZ != e.ProcessedNNZ {
			t.Errorf("%s/%s: simulated columns moved: committed time_ns=%v energy_j=%v iterations=%d processed_nnz=%d, fresh %v %v %d %d",
				e.Dataset, e.App, b.TimeNs, b.EnergyJ, b.Iterations, b.ProcessedNNZ, e.TimeNs, e.EnergyJ, e.Iterations, e.ProcessedNNZ)
		}
	}
}
