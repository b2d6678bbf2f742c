package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsHook enforces PR 1's observability contract — "one nil check, zero
// allocations when disabled" — at both ends of every hook:
//
//   - inside package obs, every exported hook on *Observer must use a
//     pointer receiver and begin with a nil-receiver guard, because the
//     disabled state is a nil *Observer and components call hooks
//     unconditionally on their hot paths;
//   - at call sites, a hook invocation that is not lexically guarded by a
//     nil check of its receiver must pass only cheap arguments: Go
//     evaluates arguments before the callee's nil check runs, so a closure,
//     composite literal, function call or implicit interface conversion in
//     the argument list costs an allocation (or arbitrary work) on every
//     call even when observability is off.
//
// Guarding the call site (if o != nil { o.Hook(expensive()) }) is the
// escape hatch for hooks that genuinely need computed arguments.
//
// A third rule covers the parallel evaluation harness: an Observer's streams
// and counters are single-writer state, so a hook invoked from inside a
// `go func() { ... }` on an observer captured from the enclosing function
// interleaves writes between worker goroutines. Each worker must construct
// its own run-local observer (declared inside the goroutine's function
// literal), or the call carries //fastsim:observer-goroutine with a reason
// the sharing is safe.
var ObsHook = &Analyzer{
	Name: "obshook",
	Doc:  "observer hooks: nil-guarded implementations, allocation-free unguarded call sites, no shared observers in goroutines",
	Run:  runObsHook,
}

// hookTypes are the obs types whose exported methods are hot-path hooks
// bound by the nil-guard / cheap-args / single-writer contract.
var hookTypes = map[string]bool{"Observer": true}

func runObsHook(pass *Pass) {
	if pass.Pkg.Name() == "obs" {
		checkHookGuards(pass)
	}
	checkHookCallSites(pass)
	checkHookGoroutines(pass)
}

// --- hook implementations (package obs) ---

func checkHookGuards(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			recvType := fd.Recv.List[0].Type
			star, isPtr := recvType.(*ast.StarExpr)
			base := recvType
			if isPtr {
				base = star.X
			}
			id, ok := base.(*ast.Ident)
			if !ok || !hookTypes[id.Name] {
				continue
			}
			if !isPtr {
				pass.Reportf(fd.Name.Pos(),
					"exported %s hook %s has a value receiver; hooks must use a pointer receiver so the disabled state (a nil *%s) is a no-op",
					id.Name, fd.Name.Name, id.Name)
				continue
			}
			recvName := ""
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			if recvName == "" || recvName == "_" || !startsWithNilGuard(fd.Body, recvName) {
				pass.Reportf(fd.Name.Pos(),
					"exported %s hook %s must begin with a nil-receiver guard (if %s == nil { return ... }); callers invoke hooks unconditionally on a possibly-nil *%s",
					id.Name, fd.Name.Name, nonEmpty(recvName, "o"), id.Name)
			}
		}
	}
}

// startsWithNilGuard reports whether body's first statement is
// "if recv == nil [|| ...] { return ... }".
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || !endsInReturn(ifs.Body) {
		return false
	}
	// The nil check must be the leftmost disjunct, so it is evaluated
	// before anything dereferences the receiver.
	cond := ifs.Cond
	for {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok || be.Op != token.LOR {
			break
		}
		cond = be.X
	}
	e, ok := nilCompare(cond, token.EQL)
	if !ok {
		return false
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == recv
}

func nonEmpty(s, fallback string) string {
	if s == "" || s == "_" {
		return fallback
	}
	return s
}

// lower lower-cases a hook type name for prose ("Observer" -> "observer").
func lower(s string) string { return strings.ToLower(s) }

// --- call sites (any package) ---

// A guard is a source region within which expr is known non-nil.
type guard struct {
	expr string
	rng  posRange
}

func checkHookCallSites(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			guards := collectGuards(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				hookType, isHook := hookRecvType(pass, sel.X)
				if !isHook {
					return true
				}
				recv := types.ExprString(sel.X)
				for _, g := range guards {
					if g.expr == recv && g.rng.contains(call.Pos()) {
						return true // nil-guarded: computed arguments are fine
					}
				}
				checkHookArgs(pass, call, sel, recv, hookType)
				return true
			})
		}
	}
}

// collectGuards finds the regions of fn where some expression is known
// non-nil: the body of "if E != nil [&& ...]", the else-branch of
// "if E == nil", and — when that if-body returns — the rest of the
// function after "if E == nil [|| ...] { return }".
func collectGuards(fnBody *ast.BlockStmt) []guard {
	var gs []guard
	ast.Inspect(fnBody, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, e := range neqNilExprs(ifs.Cond) {
			gs = append(gs, guard{types.ExprString(e), posRange{ifs.Body.Pos(), ifs.Body.End()}})
		}
		if eqs := eqNilExprs(ifs.Cond); len(eqs) > 0 {
			if endsInReturn(ifs.Body) {
				for _, e := range eqs {
					gs = append(gs, guard{types.ExprString(e), posRange{ifs.End(), fnBody.End()}})
				}
			}
			if blk, ok := ifs.Else.(*ast.BlockStmt); ok {
				for _, e := range eqs {
					gs = append(gs, guard{types.ExprString(e), posRange{blk.Pos(), blk.End()}})
				}
			}
		}
		return true
	})
	return gs
}

// neqNilExprs returns the expressions proven non-nil when cond holds:
// the "E != nil" conjuncts of an && tree.
func neqNilExprs(cond ast.Expr) []ast.Expr {
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		return append(neqNilExprs(be.X), neqNilExprs(be.Y)...)
	}
	if e, ok := nilCompare(cond, token.NEQ); ok {
		return []ast.Expr{e}
	}
	return nil
}

// eqNilExprs returns the expressions proven non-nil when cond does NOT
// hold: the "E == nil" disjuncts of an || tree.
func eqNilExprs(cond ast.Expr) []ast.Expr {
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LOR {
		return append(eqNilExprs(be.X), eqNilExprs(be.Y)...)
	}
	if e, ok := nilCompare(cond, token.EQL); ok {
		return []ast.Expr{e}
	}
	return nil
}

// nilCompare matches "E op nil" or "nil op E" and returns E.
func nilCompare(cond ast.Expr, op token.Token) (ast.Expr, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return nil, false
	}
	if isNilIdent(be.Y) {
		return be.X, true
	}
	if isNilIdent(be.X) {
		return be.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// endsInReturn reports whether the block's last statement leaves the
// function.
func endsInReturn(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// hookRecvType reports whether e's type is one of the hook-bearing obs
// types (Observer) or a pointer to one, and which (matched by name,
// so fixture packages named obs participate too).
func hookRecvType(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || !hookTypes[obj.Name()] || obj.Pkg() == nil || obj.Pkg().Name() != "obs" {
		return "", false
	}
	return obj.Name(), true
}

func checkHookArgs(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr, recv, hookType string) {
	var sig *types.Signature
	if tv, ok := pass.Info.Types[sel]; ok {
		sig, _ = tv.Type.(*types.Signature)
	}
	for i, arg := range call.Args {
		if !isCheapExpr(pass, arg) {
			if _, isClosure := arg.(*ast.FuncLit); isClosure {
				pass.Reportf(arg.Pos(),
					"closure passed to %s hook %s allocates on every call, even when the %s is disabled; hoist it, or guard the call with if %s != nil",
					hookType, sel.Sel.Name, lower(hookType), recv)
			} else {
				pass.Reportf(arg.Pos(),
					"argument %s to %s hook %s is evaluated (and may allocate) even when the %s is disabled; pass a plain value, or guard the call with if %s != nil",
					types.ExprString(arg), hookType, sel.Sel.Name, lower(hookType), recv)
			}
			continue
		}
		if sig != nil && boxesToInterface(pass, sig, i, arg) {
			pass.Reportf(arg.Pos(),
				"argument %s to %s hook %s is implicitly converted to an interface, allocating even when the %s is disabled; change the hook's parameter type, or guard the call with if %s != nil",
				types.ExprString(arg), hookType, sel.Sel.Name, lower(hookType), recv)
		}
	}
}

// isCheapExpr reports whether evaluating e is allocation-free and
// side-effect-free: identifiers, field selections, literals, conversions,
// indexing and arithmetic over such expressions.
func isCheapExpr(pass *Pass, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		return isCheapExpr(pass, v.X)
	case *ast.ParenExpr:
		return isCheapExpr(pass, v.X)
	case *ast.StarExpr:
		return isCheapExpr(pass, v.X)
	case *ast.IndexExpr:
		return isCheapExpr(pass, v.X) && isCheapExpr(pass, v.Index)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return false // &x may escape and allocate
		}
		return isCheapExpr(pass, v.X)
	case *ast.BinaryExpr:
		if tv, ok := pass.Info.Types[e]; ok && tv.Value == nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return false // non-constant string concatenation allocates
			}
		}
		return isCheapExpr(pass, v.X) && isCheapExpr(pass, v.Y)
	case *ast.CallExpr:
		// Type conversions are free; real calls do arbitrary work.
		if tv, ok := pass.Info.Types[v.Fun]; ok && tv.IsType() {
			return len(v.Args) == 1 && isCheapExpr(pass, v.Args[0])
		}
		return false
	}
	return false
}

// --- goroutine capture (any package) ---

// checkHookGoroutines reports Observer hook calls inside a `go func() {...}`
// whose receiver is captured from outside the goroutine's function literal:
// observers are single-writer, so sharing one across workers interleaves
// its streams nondeterministically.
func checkHookGoroutines(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				hookType, isHook := hookRecvType(pass, sel.X)
				if !isHook {
					return true
				}
				root := rootIdent(sel.X)
				if root == nil {
					return true
				}
				obj := pass.Info.Uses[root]
				if obj == nil {
					obj = pass.Info.Defs[root]
				}
				// An observer declared inside the literal (a parameter or a
				// run-local observer built by the worker) is goroutine-private.
				if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
					return true
				}
				if _, ok := pass.Annotation(call.Pos(), MarkerObserverGoroutine); ok {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s hook %s is called from a goroutine on %s, which is captured from the enclosing function; %ss are single-writer — build a run-local %s inside the goroutine, or annotate //fastsim:observer-goroutine: <why concurrent hook calls are safe>",
					hookType, sel.Sel.Name, types.ExprString(sel.X), lower(hookType), lower(hookType))
				return true
			})
			return true
		})
	}
}

// rootIdent unwraps selectors, parens, derefs and indexing down to the base
// identifier an expression reads from; nil when the base is a call result or
// literal, which cannot be attributed to a captured variable.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// boxesToInterface reports whether argument i is implicitly converted to an
// interface-typed parameter.
func boxesToInterface(pass *Pass, sig *types.Signature, i int, arg ast.Expr) bool {
	params := sig.Params()
	var param types.Type
	switch {
	case sig.Variadic() && i >= params.Len()-1:
		s, ok := params.At(params.Len() - 1).Type().(*types.Slice)
		if !ok {
			return false
		}
		param = s.Elem()
	case i < params.Len():
		param = params.At(i).Type()
	default:
		return false
	}
	if !types.IsInterface(param) {
		return false
	}
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}
