// Package sharedwrite flags writes to shared state inside par.Pool worker
// bodies — the closures and bound methods passed to Pool.ForEach and
// Pool.ForEachBlock (the worker fn is the last argument of both). The
// pool's determinism contract (par package doc) requires cross-index state
// to be keyed by index, block or worker and merged after the join; a write
// that two workers can reach is a data race the equivalence suite only
// catches if a sweep happens to exercise it, so this analyzer proves
// privacy statically or demands a justification.
//
// The check is flow-aware over the framework Frame (analysis/flow.go). Two
// taint flavors are computed from the body's parameters (worker id and
// index/range bounds):
//
//   - index taint: scalars produced by pure arithmetic over the parameters
//     (`d := lo`, `int32(w)`, loop variables seeded from lo). Reads from
//     memory do NOT propagate it: a value loaded via the worker's range is
//     the worker's data, not a proof it stays inside the worker's range.
//   - alias taint: references reached through a parameter-indexed path
//     (`e := &bufs[k]`, `c := &counts[w]`, `rep := replica(k)`), plus
//     selectors of such values (`r := ranges[k]; v := r.First` keeps v
//     index-tainted).
//
// A write is accepted when its target roots at an alias-tainted or
// locally-allocated variable, when some index/slice position on the target
// path is index-tainted (`busy[k]`), or when a dominating or preceding
// guard compares the written index (or a value derived from it) against an
// index-tainted bound — the `if int(idx) < lo || int(idx) >= hi { continue }`
// and `case owner == int32(k):` ownership shapes. Everything else is
// reported. A site whose safety rests on a dynamic sharding invariant the
// analyzer cannot see (say, a destination read out of a per-block bucket)
// must carry //gearbox:nondet-ok <reason>, and the CI -race job is its
// dynamic cross-check.
package sharedwrite

import (
	"go/ast"
	"go/types"

	"gearbox/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc: "flags writes to captured or shared state inside par.Pool worker bodies " +
		"that are not provably worker-private; justify dynamic sharding " +
		"invariants with //gearbox:nondet-ok <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	ann := analysis.ScanAnnotations(pass.Fset, pass.Files...)
	// Index every method declaration and every func-literal assignment to a
	// struct field, so bound worker bodies (s.fn = func…; s.fn = s.body)
	// resolve to their code.
	decls := make(map[types.Object]*ast.FuncDecl)
	fieldLits := make(map[types.Object][]ast.Expr)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj := pass.Info.Defs[n.Name]; obj != nil {
					decls[obj] = n
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok || i >= len(n.Rhs) && len(n.Rhs) != 1 {
						continue
					}
					obj := pass.Info.Uses[sel.Sel]
					if obj == nil {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					fieldLits[obj] = append(fieldLits[obj], rhs)
				}
			}
			return true
		})
	}

	checked := make(map[ast.Node]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPoolForEach(pass, call) || len(call.Args) < 2 {
				return true
			}
			for _, body := range resolveWorkerFns(pass, call.Args[len(call.Args)-1], decls, fieldLits) {
				if !checked[body.node] {
					checked[body.node] = true
					checkWorkerBody(pass, ann, body)
				}
			}
			return true
		})
	}
	return nil
}

// poolForEachNames is the set of Pool entry points that run a worker fn:
// the per-index and the per-block form. The worker fn is the LAST argument
// of both (the region name and counts come first).
var poolForEachNames = map[string]bool{
	"ForEach":      true,
	"ForEachBlock": true,
}

// isPoolForEach matches method calls with a poolForEachNames name on a
// (pointer to a) named type Pool — name-based, so fixtures and future pools
// match without importing internal/par.
func isPoolForEach(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !poolForEachNames[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// workerFn is one resolved worker body: the node holding its code and the
// parameter objects (worker id plus index or range bounds).
type workerFn struct {
	node   ast.Node // *ast.BlockStmt
	lit    ast.Node // the FuncLit or FuncDecl, for capture scoping
	params []types.Object
}

// resolveWorkerFns follows the worker fn argument to its code: a func
// literal in place, a local variable assigned a literal, a struct field
// bound to a literal or method value anywhere in the package, or a direct
// method value.
func resolveWorkerFns(pass *analysis.Pass, arg ast.Expr, decls map[types.Object]*ast.FuncDecl, fieldLits map[types.Object][]ast.Expr) []workerFn {
	var out []workerFn
	var follow func(e ast.Expr, depth int)
	follow = func(e ast.Expr, depth int) {
		if depth > 3 {
			return
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			out = append(out, litFn(pass, e))
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				return
			}
			if fd, ok := decls[obj]; ok && fd.Body != nil {
				out = append(out, declFn(pass, fd))
				return
			}
			// A local bound to a literal: scan the enclosing file once.
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != len(as.Rhs) {
						return true
					}
					for i, l := range as.Lhs {
						id, ok := l.(*ast.Ident)
						if !ok {
							continue
						}
						o := pass.Info.Defs[id]
						if o == nil {
							o = pass.Info.Uses[id]
						}
						if o == obj {
							follow(as.Rhs[i], depth+1)
						}
					}
					return true
				})
			}
		case *ast.SelectorExpr:
			if fn, ok := pass.Info.Uses[e.Sel].(*types.Func); ok {
				if fd, ok := decls[fn]; ok && fd.Body != nil {
					out = append(out, declFn(pass, fd))
				}
				return
			}
			if obj := pass.Info.Uses[e.Sel]; obj != nil {
				for _, rhs := range fieldLits[obj] {
					follow(rhs, depth+1)
				}
			}
		}
	}
	follow(arg, 0)
	return out
}

func litFn(pass *analysis.Pass, lit *ast.FuncLit) workerFn {
	return workerFn{node: lit.Body, lit: lit, params: fieldParams(pass, lit.Type.Params)}
}

func declFn(pass *analysis.Pass, fd *ast.FuncDecl) workerFn {
	return workerFn{node: fd.Body, lit: fd, params: fieldParams(pass, fd.Type.Params)}
}

func fieldParams(pass *analysis.Pass, fl *ast.FieldList) []types.Object {
	var out []types.Object
	for _, field := range fl.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checker carries the per-body taint state.
type checker struct {
	pass       *analysis.Pass
	ann        *analysis.Annotations
	frame      *analysis.Frame
	body       workerFn
	indexTaint map[types.Object]bool // pure-arithmetic scalars over params
	aliasTaint map[types.Object]bool // refs reached via a param-indexed path
	private    map[types.Object]bool // locally allocated containers
}

func checkWorkerBody(pass *analysis.Pass, ann *analysis.Annotations, body workerFn) {
	c := &checker{
		pass:       pass,
		ann:        ann,
		frame:      analysis.NewFrame(pass.Info, body.node),
		body:       body,
		indexTaint: make(map[types.Object]bool),
		aliasTaint: make(map[types.Object]bool),
		private:    make(map[types.Object]bool),
	}
	for _, p := range body.params {
		c.indexTaint[p] = true
	}
	c.propagate()
	ast.Inspect(body.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				c.checkWrite(l, n)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, n)
		case *ast.CallExpr:
			c.checkCopy(n)
		}
		return true
	})
}

// propagate runs the taint fixed point over the frame's assignments.
func (c *checker) propagate() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(c.body.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, l := range n.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := c.pass.Info.Defs[id]
					if obj == nil {
						obj = c.pass.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					rhs := n.Rhs[i]
					if !c.indexTaint[obj] && c.pureIndexExpr(rhs) && c.mentionsAnyTaint(rhs) {
						c.indexTaint[obj] = true
						changed = true
					}
					if !c.aliasTaint[obj] && c.aliasExpr(rhs) {
						c.aliasTaint[obj] = true
						changed = true
					}
					if !c.private[obj] && c.allocExpr(rhs) {
						c.private[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// pureIndexExpr reports whether e is range-preserving arithmetic: built
// from index-tainted scalars, constants, and loads through worker-derived
// paths. Two load shapes qualify alongside plain arithmetic:
//
//   - a selector of an alias-tainted value (`r := m.plan.Ranges[k]; r.First`
//     is a bound of the worker's own plan entry);
//   - an index expression whose index is itself pure (`colStart[clo]`,
//     `off[e.Col]` — a bounds or cursor array read at a worker-derived
//     position yields the worker's own datum).
//
// Purity alone does not taint: the caller pairs this with mentionsAnyTaint
// so a loop counter seeded from a bare constant (`for c := 0; ...`), which
// sweeps the whole structure, never counts as worker-derived.
func (c *checker) pureIndexExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := c.pass.Info.Uses[e]; obj != nil {
			if c.indexTaint[obj] {
				return true
			}
			_, isConst := obj.(*types.Const)
			return isConst
		}
		return false
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return c.pureIndexExpr(e.X)
	case *ast.BinaryExpr:
		return c.pureIndexExpr(e.X) && c.pureIndexExpr(e.Y)
	case *ast.UnaryExpr:
		return c.pureIndexExpr(e.X)
	case *ast.CallExpr:
		// A conversion of a pure operand stays pure: int32(w).
		if tv, ok := c.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.pureIndexExpr(e.Args[0])
		}
		return false
	case *ast.SelectorExpr:
		if root := c.frame.RootObject(e); root != nil && c.aliasTaint[root] {
			return true
		}
		return false
	case *ast.IndexExpr:
		return c.pureIndexExpr(e.Index)
	}
	return false
}

// mentionsAnyTaint reports whether e references any tainted object of
// either flavor — the gate that keeps constant-only expressions untainted.
func (c *checker) mentionsAnyTaint(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.Info.Uses[id]; obj != nil &&
				(c.indexTaint[obj] || c.aliasTaint[obj]) {
				found = true
			}
		}
		return true
	})
	return found
}

// aliasExpr reports whether e yields a reference into worker-owned memory:
// an expression rooted at captured state with an index-tainted index or
// slice bound on its path (`bufs[k]`, `counts[w]`, `buf[lo:hi]`), an
// address of such, a selector/index of an alias-tainted local, or a call
// passing an index-tainted argument (`replica(k)`).
func (c *checker) aliasExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return c.aliasExpr(e.X)
	case *ast.IndexExpr:
		if c.mentionsTaint(e.Index) {
			return true
		}
		return c.aliasExpr(e.X)
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil && c.mentionsTaint(b) {
				return true
			}
		}
		return c.aliasExpr(e.X)
	case *ast.SelectorExpr:
		if root := c.frame.RootObject(e); root != nil && c.aliasTaint[root] {
			return true
		}
		return c.aliasExpr(e.X)
	case *ast.Ident:
		obj := c.pass.Info.Uses[e]
		return obj != nil && c.aliasTaint[obj]
	case *ast.CallExpr:
		for _, a := range e.Args {
			if c.mentionsTaint(a) {
				return true
			}
		}
		return false
	}
	return false
}

// allocExpr reports whether e allocates fresh memory in the body: make,
// composite literal, or append growing a private local.
func (c *checker) allocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					return true
				case "append":
					if len(e.Args) > 0 {
						return c.allocExpr(e.Args[0]) || c.isPrivate(e.Args[0])
					}
				}
			}
		}
	}
	return false
}

func (c *checker) isPrivate(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.Info.Uses[id]
	return obj != nil && c.private[obj]
}

func (c *checker) mentionsTaint(e ast.Expr) bool {
	return c.frame.Mentions(e, c.indexTaint)
}

// declaredInBody reports whether obj is declared inside the worker fn.
func (c *checker) declaredInBody(obj types.Object) bool {
	return analysis.DeclaredWithin(obj, c.body.lit)
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	if ok, hint := c.ann.Suppressed(analysis.KindNondetOK, n.Pos()); !ok {
		c.pass.Reportf(n.Pos(), format+"%s", append(args, hint)...)
	}
}

// checkWrite classifies one assignment/inc-dec target.
func (c *checker) checkWrite(target ast.Expr, at ast.Node) {
	target = ast.Unparen(target)
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := c.pass.Info.Uses[t]
		if obj == nil {
			return // definition (:=), frame-local by construction
		}
		if v, ok := obj.(*types.Var); !ok || v.IsField() {
			return
		}
		if c.declaredInBody(obj) {
			return
		}
		c.report(t, "write to captured variable %s in a par.Pool worker body: "+
			"workers race on it and break bit-identical determinism; make it "+
			"worker-private or annotate //gearbox:nondet-ok <reason>", t.Name)
	case *ast.IndexExpr, *ast.SliceExpr, *ast.SelectorExpr, *ast.StarExpr:
		root := c.frame.RootObject(target)
		if root == nil {
			return
		}
		if c.declaredInBody(root) {
			if c.aliasTaint[root] || c.private[root] {
				return
			}
			// A non-reference local (array/struct/scalar value) is private
			// per invocation even without provenance.
			if !referenceLike(root.Type()) {
				return
			}
		}
		if c.pathIndexTainted(target) {
			return
		}
		if c.ownershipGuarded(target) {
			return
		}
		// A map cell whose selection path is proven worker-owned (a
		// per-shard map selected by an index-tainted or owner-guarded
		// position, as in shards[k][key]) passed the checks above; an
		// unproven map write is worse than an unproven slice write because
		// the runtime faults instead of racing quietly.
		if ix, ok := target.(*ast.IndexExpr); ok {
			if _, isMap := c.pass.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				c.report(target, "write to shared map %s in a par.Pool worker body: "+
					"concurrent map writes fault; shard it per worker or annotate "+
					"//gearbox:nondet-ok <reason>", render(ix.X))
				return
			}
		}
		c.report(target, "write to shared %s at a location not derived from the "+
			"worker's range: prove ownership with a range or owner guard, or "+
			"annotate //gearbox:nondet-ok <reason>", render(target))
	}
}

// checkCopy treats copy(dst, src) as a write through dst.
func (c *checker) checkCopy(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return
	}
	if b, ok := c.pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "copy" {
		return
	}
	dst := ast.Unparen(call.Args[0])
	root := c.frame.RootObject(dst)
	if root == nil {
		return
	}
	if c.declaredInBody(root) && (c.aliasTaint[root] || c.private[root] || !referenceLike(root.Type())) {
		return
	}
	if c.pathIndexTainted(dst) || c.ownershipGuarded(dst) {
		return
	}
	c.report(call, "copy into shared %s not bounded by the worker's range: "+
		"slice it with the worker's block bounds or annotate //gearbox:nondet-ok <reason>", render(dst))
}

// pathIndexTainted reports whether any index or slice bound on the target
// path is worker-derived: directly index-tainted (busy[k], buf[lo:hi],
// bufs[k].keys[b]) or pure range-preserving arithmetic over tainted data
// (c.Offsets[e.Col+1] where e was loaded from the worker's block).
func (c *checker) pathIndexTainted(target ast.Expr) bool {
	for {
		switch t := target.(type) {
		case *ast.IndexExpr:
			if c.mentionsTaint(t.Index) ||
				(c.pureIndexExpr(t.Index) && c.mentionsAnyTaint(t.Index)) {
				return true
			}
			target = t.X
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{t.Low, t.High, t.Max} {
				if b != nil && c.mentionsTaint(b) {
					return true
				}
			}
			target = t.X
		case *ast.SelectorExpr:
			target = t.X
		case *ast.StarExpr:
			target = t.X
		case *ast.ParenExpr:
			target = t.X
		default:
			return false
		}
	}
}

// ownershipGuarded reports whether a dominating condition or a preceding
// early-exit guard relates the written location to an index-tainted bound:
// `if int(idx) < lo || int(idx) >= hi { continue }` before the write, or
// `case owner == int32(k):` around it, where idx/owner is (derived from)
// the index the write uses.
func (c *checker) ownershipGuarded(target ast.Expr) bool {
	roots := c.indexRoots(target)
	if len(roots) == 0 {
		return false
	}
	related := c.frame.Derived(roots...)
	conds := append(c.frame.DominatingConds(target), c.frame.PrecedingGuards(target)...)
	for _, cond := range conds {
		if c.mentionsTaint(cond) && c.frame.Mentions(cond, related) {
			return true
		}
	}
	return false
}

// indexRoots collects the root objects of every index expression on the
// target path — the values whose range the guard must bound.
func (c *checker) indexRoots(target ast.Expr) []types.Object {
	var roots []types.Object
	seen := make(map[types.Object]bool)
	for {
		switch t := target.(type) {
		case *ast.IndexExpr:
			ast.Inspect(t.Index, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := c.pass.Info.Uses[id]; obj != nil && !seen[obj] {
						seen[obj] = true
						roots = append(roots, obj)
					}
				}
				return true
			})
			target = t.X
		case *ast.SelectorExpr:
			target = t.X
		case *ast.StarExpr:
			target = t.X
		case *ast.ParenExpr:
			target = t.X
		case *ast.SliceExpr:
			target = t.X
		default:
			return roots
		}
	}
}

func referenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// render prints a compact source-ish form of an expression for messages.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return render(e.X) + "[…]"
	case *ast.SliceExpr:
		return render(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + render(e.X)
	case *ast.ParenExpr:
		return render(e.X)
	case *ast.CallExpr:
		return render(e.Fun) + "(…)"
	}
	return "expression"
}
