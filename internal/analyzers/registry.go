// Package analyzers registers the gearboxvet suite and the per-package
// applicability policy: which of the simulator's statically-enforced
// contracts (DESIGN.md §7, "Statically enforced contracts") bind which
// import paths.
package analyzers

import (
	"strings"

	"gearbox/internal/analyzers/analysis"
	"gearbox/internal/analyzers/borrowretain"
	"gearbox/internal/analyzers/globalrand"
	"gearbox/internal/analyzers/hotalloc"
	"gearbox/internal/analyzers/lockcheck"
	"gearbox/internal/analyzers/maprange"
	"gearbox/internal/analyzers/narrow32"
	"gearbox/internal/analyzers/sharedwrite"
	"gearbox/internal/analyzers/wallclock"
)

// All returns the suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maprange.Analyzer,
		globalrand.Analyzer,
		wallclock.Analyzer,
		hotalloc.Analyzer,
		sharedwrite.Analyzer,
		borrowretain.Analyzer,
		lockcheck.Analyzer,
		narrow32.Analyzer,
	}
}

// simulationPkgs are the packages where simulated time and bit-identical
// determinism are hard contracts: the machine and its model dependencies.
// Wall-clock reads are forbidden here outright (CLIs and the bench harness
// may legitimately measure host time).
var simulationPkgs = map[string]bool{
	"gearbox":                       true,
	"gearbox/internal/gearbox":      true,
	"gearbox/internal/apps":         true,
	"gearbox/internal/multistack":   true,
	"gearbox/internal/fulcrum":      true,
	"gearbox/internal/interconnect": true,
	"gearbox/internal/mem":          true,
	"gearbox/internal/telemetry":    true,
}

// preprocessingPkgs are the parallel preprocessing pipeline packages (mtx
// ingest, sparse builds, generators, partition planning) and the fork-join
// pool they run on. Their contract is the same bit-identical-at-any-width
// determinism as the simulator's, so the wallclock ban binds them too: host
// time can never influence chunking, sorting, or placement. The streaming ingest path (mtx/stream.go,
// sparse/stream.go) lives inside these packages and is bound by the same
// sets — its segment windowing and two-pass placement must stay
// time-independent just like the whole-slice builds (CSCFromCOO,
// ApplyPermutationWorkers, the generators), which go through the same builder.
var preprocessingPkgs = map[string]bool{
	"gearbox/internal/mtx":       true,
	"gearbox/internal/sparse":    true,
	"gearbox/internal/gen":       true,
	"gearbox/internal/partition": true,
	"gearbox/internal/par":       true,
}

// observabilityPkgs are host-side measurement packages: they may read the
// wall clock, but only through one annotated chokepoint (obs.Now), so the
// wallclock analyzer binds them too — a stray time.Now call anywhere else
// in the package is a finding. Keeping the clock behind one audited helper
// is what lets the serving layer measure real latency without the
// simulation contracts ever seeing host time.
var observabilityPkgs = map[string]bool{
	"gearbox/internal/obs": true,
}

// concurrencyPkgs are the packages whose lock discipline lockcheck audits:
// the serving layer's session registry, queue and drain loop, and the
// fork-join pool those workers run on. Other packages use mutexes only
// incidentally (telemetry sinks guard counters with defer-unlock) and the
// whole-tree -race CI job covers them dynamically.
var concurrencyPkgs = map[string]bool{
	"gearbox/internal/serve": true,
	"gearbox/internal/par":   true,
}

// Applies reports whether analyzer a runs over package path.
//
//   - wallclock binds the simulation and preprocessing packages (CLIs and
//     the bench harness legitimately measure host time) plus the
//     observability package, whose single annotated obs.Now helper is the
//     only sanctioned clock read;
//   - lockcheck binds the concurrency packages (serve, par);
//   - narrow32 binds the preprocessing packages, where nnz/row-count-sized
//     values live — the simulator proper only sees post-ingest indices that
//     ingest has already capped;
//   - everything else — maprange, globalrand, hotalloc, sharedwrite,
//     borrowretain — sweeps the whole module: their findings are either
//     real hazards or justified annotations anywhere.
func Applies(a *analysis.Analyzer, path string) bool {
	switch a.Name {
	case wallclock.Analyzer.Name:
		return simulationPkgs[path] || preprocessingPkgs[path] || observabilityPkgs[path]
	case lockcheck.Analyzer.Name:
		return concurrencyPkgs[path]
	case narrow32.Analyzer.Name:
		return preprocessingPkgs[path]
	default:
		return path == "gearbox" || strings.HasPrefix(path, "gearbox/")
	}
}
