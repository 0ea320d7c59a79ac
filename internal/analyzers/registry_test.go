package analyzers_test

import (
	"bytes"
	"os/exec"
	"slices"
	"testing"

	"gearbox/internal/analyzers"
	"gearbox/internal/analyzers/analysis"
)

func TestAppliesPolicy(t *testing.T) {
	suite := analyzers.All()
	byName := func(name string) *analysis.Analyzer {
		i := slices.IndexFunc(suite, func(a *analysis.Analyzer) bool { return a.Name == name })
		if i < 0 {
			t.Fatalf("analyzer %s not registered", name)
		}
		return suite[i]
	}

	wallclock := byName("wallclock")
	if !analyzers.Applies(wallclock, "gearbox/internal/gearbox") {
		t.Errorf("wallclock must bind the simulation packages")
	}
	// The telemetry layer sits on the machine's hot path: its sinks run from
	// steady-state code and must deliver bit-identical counters at any worker
	// count, so every simulation-grade contract binds it.
	for _, name := range []string{"wallclock", "maprange", "hotalloc"} {
		if !analyzers.Applies(byName(name), "gearbox/internal/telemetry") {
			t.Errorf("%s must bind gearbox/internal/telemetry", name)
		}
	}
	for _, path := range []string{
		"gearbox/internal/mtx", "gearbox/internal/sparse",
		"gearbox/internal/gen", "gearbox/internal/partition",
	} {
		if !analyzers.Applies(wallclock, path) {
			t.Errorf("wallclock must bind the preprocessing pipeline; skips %s", path)
		}
	}
	if analyzers.Applies(wallclock, "gearbox/cmd/gearbox-bench") {
		t.Errorf("wallclock must not bind CLIs, which may measure host time")
	}
	// The metrics layer reads host time only through the annotated obs.Now
	// chokepoint; binding wallclock keeps any other clock read a finding.
	if !analyzers.Applies(wallclock, "gearbox/internal/obs") {
		t.Errorf("wallclock must bind gearbox/internal/obs (one annotated Now helper)")
	}
	// The metrics record path runs inside steady-state simulation code, so
	// hotalloc's //gearbox:steadystate audit must sweep it.
	if !analyzers.Applies(byName("hotalloc"), "gearbox/internal/obs") {
		t.Errorf("hotalloc must bind gearbox/internal/obs")
	}

	// All eight analyzers must be registered and bound to some policy.
	for _, name := range []string{
		"maprange", "globalrand", "wallclock", "hotalloc",
		"sharedwrite", "borrowretain", "lockcheck", "narrow32",
	} {
		byName(name) // fatal if missing
	}

	// lockcheck binds exactly the concurrency layers: serve's session
	// registry/queue and par's fork-join, not the single-threaded pipeline.
	lockcheck := byName("lockcheck")
	for _, path := range []string{"gearbox/internal/serve", "gearbox/internal/par"} {
		if !analyzers.Applies(lockcheck, path) {
			t.Errorf("lockcheck must bind %s", path)
		}
	}
	for _, path := range []string{"gearbox/internal/sparse", "gearbox/internal/gearbox"} {
		if analyzers.Applies(lockcheck, path) {
			t.Errorf("lockcheck must not bind %s: no lock discipline to enforce there", path)
		}
	}

	// narrow32 binds the preprocessing pipeline, where nnz- and
	// row-count-sized values live; the simulation core works in fixed widths
	// validated at plan time.
	narrow32 := byName("narrow32")
	for _, path := range []string{
		"gearbox/internal/mtx", "gearbox/internal/sparse",
		"gearbox/internal/gen", "gearbox/internal/partition",
	} {
		if !analyzers.Applies(narrow32, path) {
			t.Errorf("narrow32 must bind the preprocessing pipeline; skips %s", path)
		}
	}
	if analyzers.Applies(narrow32, "gearbox/internal/gearbox") {
		t.Errorf("narrow32 must not bind the simulation core")
	}
	// Only preprocessing runs on the par pool, so par is bound as
	// preprocessing: wallclock and narrow32 both apply.
	for _, a := range []*analysis.Analyzer{wallclock, narrow32} {
		if !analyzers.Applies(a, "gearbox/internal/par") {
			t.Errorf("%s must bind gearbox/internal/par", a.Name)
		}
	}

	for _, name := range []string{
		"maprange", "globalrand", "hotalloc",
		"sharedwrite", "borrowretain",
	} {
		a := byName(name)
		for _, path := range []string{
			"gearbox", "gearbox/internal/sparse", "gearbox/internal/mtx",
			"gearbox/internal/gen", "gearbox/cmd/gearboxvet",
		} {
			if !analyzers.Applies(a, path) {
				t.Errorf("%s must sweep the whole module; skips %s", name, path)
			}
		}
		if analyzers.Applies(a, "example.com/other") {
			t.Errorf("%s must not apply outside the module", name)
		}
	}
}

// TestGearboxvetCleanTree is the satellite smoke test: the committed tree
// must stay clean under the full suite, exactly as CI enforces it.
func TestGearboxvetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gearboxvet over the whole module")
	}
	cmd := exec.Command("go", "run", "./cmd/gearboxvet", "./...")
	cmd.Dir = "../.." // module root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("gearboxvet is not clean on the tree:\n%s\n(%v)", out.String(), err)
	}
}
