package analysis

// flow.go is the framework's intra-procedural dataflow layer: the shared
// machinery the flow-aware analyzers (sharedwrite, borrowretain, lockcheck,
// narrow32, recycleuse) build on. It deliberately stops short of a full CFG:
// analysis is position-ordered within one function frame, with just enough
// structure — parent links, assignment def-use, early-exit marking,
// dominating and preceding guard conditions, and a transitive derived-value
// closure — to express the contracts the suite checks. The trade-offs this
// buys are documented per helper; every analyzer that uses a helper inherits
// its approximations.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParentMap builds a child→parent index for the subtree under root. Shared
// by every frame and by checks that only need local structure (hotalloc's
// closure-escape shape, lockcheck's Wait-in-loop test).
func ParentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// assign records one definition of an object: where, and from what
// expression (nil for bindings with no single source expression, e.g. a
// function parameter).
type assign struct {
	pos token.Pos
	rhs ast.Expr
}

// Frame is the dataflow index of one function body (including nested func
// literals: a literal shares its enclosing frame's variables, so taint and
// kills flow through it).
type Frame struct {
	Info    *types.Info
	Root    ast.Node
	Parents map[ast.Node]ast.Node

	assigns map[types.Object][]assign
	// rangeSrc maps a range-statement key/value object to the ranged-over
	// expression it is drawn from.
	rangeSrc map[types.Object]ast.Expr
	// litParams maps a func literal bound to a frame-local variable to its
	// parameter objects, and litCalls collects the frame's calls of that
	// variable, so Derived can bind arguments to parameters.
	litParams map[types.Object][]types.Object
	litCalls  map[types.Object][][]ast.Expr
	exits     map[*ast.CallExpr]bool
}

// NewFrame indexes one function body.
func NewFrame(info *types.Info, root ast.Node) *Frame {
	f := &Frame{
		Info:      info,
		Root:      root,
		Parents:   ParentMap(root),
		assigns:   make(map[types.Object][]assign),
		rangeSrc:  make(map[types.Object]ast.Expr),
		litParams: make(map[types.Object][]types.Object),
		litCalls:  make(map[types.Object][][]ast.Expr),
		exits:     make(map[*ast.CallExpr]bool),
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			f.indexAssign(n)
		case *ast.RangeStmt:
			f.indexRange(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				} else if len(n.Values) == 1 {
					rhs = n.Values[0] // tuple init: every name derives from it
				}
				f.assigns[obj] = append(f.assigns[obj], assign{pos: name.Pos(), rhs: rhs})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					f.litCalls[obj] = append(f.litCalls[obj], n.Args)
				}
			}
		case *ast.BlockStmt:
			markExits(n.List, f.exits)
		case *ast.CaseClause:
			markExits(n.Body, f.exits)
		case *ast.CommClause:
			markExits(n.Body, f.exits)
		}
		return true
	})
	return f
}

func (f *Frame) indexAssign(as *ast.AssignStmt) {
	tuple := len(as.Lhs) != len(as.Rhs)
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := f.Info.Defs[id]
		if obj == nil {
			obj = f.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if tuple {
			rhs = as.Rhs[0] // x, y := f(): both derive from the call
		} else {
			rhs = as.Rhs[i]
		}
		f.assigns[obj] = append(f.assigns[obj], assign{pos: id.Pos(), rhs: rhs})
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			var params []types.Object
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if p := f.Info.Defs[name]; p != nil {
						params = append(params, p)
					}
				}
			}
			f.litParams[obj] = params
		}
	}
}

func (f *Frame) indexRange(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		obj := f.Info.Defs[id]
		if obj == nil {
			obj = f.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		f.assigns[obj] = append(f.assigns[obj], assign{pos: id.Pos(), rhs: rs.X})
		f.rangeSrc[obj] = rs.X
	}
}

// AssignPositions returns every position where obj is (re)defined in the
// frame, in source order of discovery.
func (f *Frame) AssignPositions(obj types.Object) []token.Pos {
	out := make([]token.Pos, 0, len(f.assigns[obj]))
	for _, a := range f.assigns[obj] {
		out = append(out, a.pos)
	}
	return out
}

// KilledBetween reports whether obj is reassigned strictly between from and
// to. The check is position-ordered, not path-sensitive: a kill on a
// sibling branch counts. Analyzers that use it (recycleuse) accept the
// resulting false negatives in exchange for never flagging the legal
// steady-state loop shape.
func (f *Frame) KilledBetween(obj types.Object, from, to token.Pos) bool {
	for _, a := range f.assigns[obj] {
		if a.pos > from && a.pos < to {
			return true
		}
	}
	return false
}

// ExitsAfterCall reports whether call's statement is immediately followed by
// a return in the same statement list: `f(x); return …` exits the frame, so
// positionally-later code can never run after the call.
func (f *Frame) ExitsAfterCall(call *ast.CallExpr) bool { return f.exits[call] }

// markExits records calls whose statement is immediately followed by a
// return in the same statement list.
func markExits(stmts []ast.Stmt, exitsAfter map[*ast.CallExpr]bool) {
	for i, s := range stmts {
		es, ok := s.(*ast.ExprStmt)
		if !ok || i+1 >= len(stmts) {
			continue
		}
		if _, ret := stmts[i+1].(*ast.ReturnStmt); !ret {
			continue
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			exitsAfter[call] = true
		}
	}
}

// Derived computes the transitive forward closure of values derived from
// seeds within the frame: an object is derived if it is a seed, if any of
// its definitions' source expressions mentions a derived object (assignment,
// := declaration, or range binding — `keys := m.bufs[k].keys[w]` with param
// w marks keys; ranging over keys marks the key/value variables), or if it
// is a parameter of a frame-local func literal whose every call in the frame
// passes a derived argument in that position.
//
// The any-definition rule over-approximates (one derived definition marks
// the object even if another is underived); the literal-parameter rule
// under-approximates the other way (all calls must agree). Both choices err
// toward treating values as derived, which for the analyzers that consume
// this (sharedwrite's worker-private taint) means missed findings, never
// false ones.
func (f *Frame) Derived(seeds ...types.Object) map[types.Object]bool {
	derived := make(map[types.Object]bool, len(seeds))
	for _, s := range seeds {
		if s != nil {
			derived[s] = true
		}
	}
	for changed := true; changed; {
		changed = false
		//gearbox:nondet-ok fixed-point accumulation: the final derived set is iteration-order independent
		for obj, as := range f.assigns {
			if derived[obj] {
				continue
			}
			for _, a := range as {
				if a.rhs != nil && f.Mentions(a.rhs, derived) {
					derived[obj] = true
					changed = true
					break
				}
			}
		}
		//gearbox:nondet-ok fixed-point accumulation: the final derived set is iteration-order independent
		for obj, params := range f.litParams {
			calls := f.litCalls[obj]
			if len(calls) == 0 {
				continue
			}
			for i, p := range params {
				if derived[p] {
					continue
				}
				all := true
				for _, args := range calls {
					if i >= len(args) || !f.Mentions(args[i], derived) {
						all = false
						break
					}
				}
				if all {
					derived[p] = true
					changed = true
				}
			}
		}
	}
	return derived
}

// Mentions reports whether expr references any object in set.
func (f *Frame) Mentions(expr ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := f.Info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// DominatingConds returns the conditions structurally controlling n, nearest
// first: the condition of every enclosing if (and the guard expressions of
// the case/comm clause n sits in, and for-loop conditions) up to the frame
// root. "Controls" is syntactic domination — n executes only when each
// returned condition held (for the branch n is on; else-branches contribute
// their if's condition too, since analyzers only scan the list for guard
// shapes rather than assuming polarity).
func (f *Frame) DominatingConds(n ast.Node) []ast.Expr {
	var conds []ast.Expr
	for cur := n; cur != nil && cur != f.Root; cur = f.Parents[cur] {
		switch p := f.Parents[cur].(type) {
		case *ast.IfStmt:
			if cur != p.Cond && cur != p.Init {
				conds = append(conds, p.Cond)
			}
		case *ast.ForStmt:
			if p.Cond != nil && cur == p.Body {
				conds = append(conds, p.Cond)
			}
		case *ast.CaseClause:
			conds = append(conds, p.List...)
		}
	}
	return conds
}

// PrecedingGuards returns the conditions of early-exit if statements — an if
// with no else whose body ends in continue, break, return, or a panic call —
// that precede n inside its enclosing blocks, innermost first. These are the
// `if out-of-range { continue }` filters a position-ordered analysis treats
// as having killed the guarded values for the code after them.
func (f *Frame) PrecedingGuards(n ast.Node) []ast.Expr {
	var conds []ast.Expr
	for cur := n; cur != nil && cur != f.Root; cur = f.Parents[cur] {
		block, ok := f.Parents[cur].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, s := range block.List {
			if s.Pos() >= cur.Pos() {
				break
			}
			ifs, ok := s.(*ast.IfStmt)
			if !ok || ifs.Else != nil || !endsInExit(ifs.Body) {
				continue
			}
			conds = append(conds, ifs.Cond)
		}
	}
	return conds
}

func endsInExit(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// RootObject resolves the base object a write or read ultimately touches:
// it unwraps index, slice, selector, star, and paren expressions down to the
// leftmost identifier. `m.bufs[k].keys[b]` roots at m; `(*p).f` roots at p.
// Returns nil when the base is not a plain identifier (a call result, a
// composite literal).
func (f *Frame) RootObject(expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := f.Info.Uses[e]; obj != nil {
				return obj
			}
			return f.Info.Defs[e]
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// DeclaredWithin reports whether obj's declaration lies inside node — the
// capture test: an object used in a func literal but declared outside it is
// captured from the enclosing frame.
func DeclaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}
