// Package wallclock flags wall-clock reads in simulation packages. The
// simulator's notion of time is the machine's simulated clock
// (Machine.NowNs): every duration is derived from the machine's timing model
// and advances deterministically.
// A time.Now/Since/Sleep in a simulation package either leaks host timing
// into simulated results (breaking run-to-run reproducibility) or stalls
// the simulation for no model reason; both are contract violations.
package wallclock

import (
	"go/ast"
	"go/types"

	"gearbox/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "flags time.Now/Since/Sleep (and timer constructors) in simulation " +
		"packages, where time must come from the simulated clock (Machine.NowNs)",
	Run: run,
}

// wallFuncs are the package-level time functions that read or wait on the
// host clock. Pure duration arithmetic (time.Duration, constants) is fine.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func run(pass *analysis.Pass) error {
	ann := analysis.ScanAnnotations(pass.Fset, pass.Files...)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Signature().Recv() != nil || !wallFuncs[fn.Name()] {
				return true
			}
			if ok, hint := ann.Suppressed(analysis.KindNondetOK, id.Pos()); !ok {
				pass.Reportf(id.Pos(), "time.%s reads the wall clock; simulated time "+
					"must come from the simulated clock (Machine.NowNs)%s", fn.Name(), hint)
			}
			return true
		})
	}
	return nil
}
