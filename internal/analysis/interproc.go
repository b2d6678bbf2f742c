package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// This file is the interprocedural half of the suite: a stdlib-only call
// graph over every loaded package, one summary per function declaration,
// and fixed-point propagation of two fact kinds across it —
//
//   - wall-clock taint: the function transitively reaches time.Now (or the
//     global math/rand source) through calls none of which carry a
//     //fastsim:allow-wallclock annotation;
//   - impurity: the function transitively reads or writes mutable
//     package-level state, performs goroutine/channel/sync operations, or
//     accumulates floats in map-iteration order.
//
// Annotations propagate as summary facts: a call site (or whole function)
// annotated //fastsim:allow-wallclock or //fastsim:allow-impure absorbs the
// corresponding fact, so its callers stay clean. Each propagated fact keeps
// a witness edge, so findings print the offending call chain down to the
// root use.

// A FuncSummary is the per-function record the interprocedural analyzers
// consume: annotations on the declaration, direct hazard facts found in the
// body, and the outgoing static call edges.
type FuncSummary struct {
	Key  string        // types.Func FullName — stable across type-check universes
	Name string        // short display name, e.g. "memo.(*Cache).Reclaim"
	Decl *ast.FuncDecl // declaration site
	Pkg  *Package      // defining package

	// Declaration-line annotations.
	AllowWallclock bool     // fastsim:allow-wallclock: whole function absorbs taint
	AllowImpure    bool     // fastsim:allow-impure: whole function absorbs impurity
	Policy         bool     // fastsim:memo-policy: enforced-pure decision point
	PolicyReason   string   // the annotation's justification text
	CallerHolds    []string // fastsim:caller-holds(mu): lock preconditions

	wallUses   []fact     // unannotated direct time/global-rand uses
	impureUses []fact     // unannotated direct impurity facts
	calls      []callEdge // outgoing static calls, in source order
}

// A fact is one direct hazard found in a function body.
type fact struct {
	pos  token.Pos
	desc string // e.g. "time.Now", "writes package-level var memo.hits"
}

// A callEdge is one static call site.
type callEdge struct {
	pos            token.Pos
	callee         string // callee summary key (FullName)
	display        string // short display name of the callee
	allowWallclock bool   // site annotation absorbs taint through this edge
	allowImpure    bool   // site annotation absorbs impurity through this edge
}

// A propStep is one link of a propagated-fact witness chain: either a
// direct fact (callee == "") or the call edge through which the fact
// arrived. Chains are acyclic by construction — a step always points at a
// function whose own step was assigned earlier in the fixed point.
type propStep struct {
	pos    token.Pos
	desc   string // direct facts: the hazard; edges: unused
	callee string // next function key on the chain; "" terminates
}

// A Program is the whole-program view: every loaded package, the summary
// table, and the propagated fact maps.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	cwd    string // for rendering chain positions relative, when possible
	funcs  map[string]*FuncSummary
	byDecl map[*ast.FuncDecl]*FuncSummary
	annots map[*Package]annotIndex

	tainted map[string]*propStep
	impure  map[string]*propStep
}

// BuildProgram summarizes every function of pkgs and runs the fixed-point
// propagation. Packages are processed in path order so summary iteration —
// and therefore every diagnostic that prints a chain — is deterministic.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Fset:    sharedFset,
		cwd:     cwdOrEmpty(),
		funcs:   make(map[string]*FuncSummary),
		byDecl:  make(map[*ast.FuncDecl]*FuncSummary),
		annots:  make(map[*Package]annotIndex),
		tainted: make(map[string]*propStep),
		impure:  make(map[string]*propStep),
	}
	p.Pkgs = append(p.Pkgs, pkgs...)
	sort.Slice(p.Pkgs, func(i, j int) bool { return p.Pkgs[i].Path < p.Pkgs[j].Path })
	mutable := mutableGlobals(p.Pkgs)
	loaded := make(map[string]bool, len(p.Pkgs))
	for _, pkg := range p.Pkgs {
		loaded[pkg.Types.Path()] = true
	}
	for _, pkg := range p.Pkgs {
		p.summarizePackage(pkg, mutable, loaded)
	}
	p.propagate()
	return p
}

// annotations returns (building on demand) the comment index for pkg.
func (p *Program) annotations(pkg *Package) annotIndex {
	ai, ok := p.annots[pkg]
	if !ok {
		ai = gatherAnnotations(pkg.Fset, pkg.Files)
		p.annots[pkg] = ai
	}
	return ai
}

// Summary returns the summary recorded for decl, or nil.
func (p *Program) Summary(decl *ast.FuncDecl) *FuncSummary { return p.byDecl[decl] }

// Lookup returns the summary for a function key, or nil.
func (p *Program) Lookup(key string) *FuncSummary { return p.funcs[key] }

// summarizePackage builds one FuncSummary per function declaration.
func (p *Program) summarizePackage(pkg *Package, mutable map[string]bool, loaded map[string]bool) {
	ai := p.annotations(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sum := &FuncSummary{
				Key:  obj.FullName(),
				Name: shortFuncName(obj),
				Decl: fd,
				Pkg:  pkg,
			}
			_, sum.AllowWallclock = ai.at(pkg.Fset, fd.Name.Pos(), MarkerAllowWallclock)
			_, sum.AllowImpure = ai.at(pkg.Fset, fd.Name.Pos(), MarkerAllowImpure)
			sum.PolicyReason, sum.Policy = ai.at(pkg.Fset, fd.Name.Pos(), MarkerMemoPolicy)
			if reason, ok := ai.at(pkg.Fset, fd.Name.Pos(), MarkerCallerHolds); ok {
				sum.CallerHolds = parenNames(reason)
			}
			p.scanBody(pkg, ai, sum, mutable, loaded)
			p.funcs[sum.Key] = sum
			p.byDecl[fd] = sum
		}
	}
}

// parenNames extracts the comma-separated identifiers of the "(mu)" group
// that parameterized markers carry directly after the marker text.
var parenRe = regexp.MustCompile(`^\(([^)]+)\)`)

func parenNames(reason string) []string {
	m := parenRe.FindStringSubmatch(strings.TrimSpace(reason))
	if m == nil {
		return nil
	}
	var names []string
	for _, n := range strings.Split(m[1], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// scanBody collects a function's direct facts and call edges.
func (p *Program) scanBody(pkg *Package, ai annotIndex, sum *FuncSummary, mutable, loaded map[string]bool) {
	fset, info := pkg.Fset, pkg.Info
	mapBodies := mapRangeBodies(info, sum.Decl.Body)
	writes := lvalueRoots(info, sum.Decl.Body)

	ast.Inspect(sum.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			// Direct wall-clock / global-rand uses (call or value reference).
			if fn, ok := info.Uses[v.Sel].(*types.Func); ok && !sum.AllowWallclock {
				if desc, bad := wallclockFunc(fn); bad {
					if _, ok := ai.at(fset, v.Pos(), MarkerAllowWallclock); !ok {
						sum.wallUses = append(sum.wallUses, fact{v.Pos(), desc})
					}
				}
			}
		case *ast.CallExpr:
			if fn := staticCallee(info, v); fn != nil {
				edge := callEdge{pos: v.Pos(), callee: fn.FullName(), display: shortFuncName(fn)}
				_, edge.allowWallclock = ai.at(fset, v.Pos(), MarkerAllowWallclock)
				_, edge.allowImpure = ai.at(fset, v.Pos(), MarkerAllowImpure)
				sum.calls = append(sum.calls, edge)
				if desc, bad := syncCall(fn); bad {
					p.addImpure(ai, sum, fset, v.Pos(), desc)
				}
			}
			if id, ok := unparen(v.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					p.addImpure(ai, sum, fset, v.Pos(), "closes a channel")
				}
			}
		case *ast.GoStmt:
			p.addImpure(ai, sum, fset, v.Pos(), "starts a goroutine")
		case *ast.SendStmt:
			p.addImpure(ai, sum, fset, v.Arrow, "sends on a channel")
		case *ast.SelectStmt:
			p.addImpure(ai, sum, fset, v.Pos(), "selects on channels")
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				p.addImpure(ai, sum, fset, v.Pos(), "receives from a channel")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					p.addImpure(ai, sum, fset, v.For, "ranges over a channel")
				}
			}
		case *ast.AssignStmt:
			if floatAccumAssign(info, v) && within(mapBodies, v.Pos()) {
				if _, exact := ai.at(fset, v.Pos(), MarkerFloatExact); !exact {
					p.addImpure(ai, sum, fset, v.Pos(), "accumulates floats in map-iteration order")
				}
			}
		case *ast.Ident:
			if g, key := globalVar(info, v, loaded); g != nil {
				verb := "reads"
				if writes[v] {
					verb = "writes"
				} else if !mutable[key] && loaded[g.Pkg().Path()] {
					return true // read of an effectively-immutable global
				}
				p.addImpure(ai, sum, fset, v.Pos(), fmt.Sprintf("%s package-level var %s.%s", verb, g.Pkg().Name(), g.Name()))
			}
		}
		return true
	})
}

// addImpure records an unannotated direct impurity fact.
func (p *Program) addImpure(ai annotIndex, sum *FuncSummary, fset *token.FileSet, pos token.Pos, desc string) {
	if sum.AllowImpure {
		return
	}
	if _, ok := ai.at(fset, pos, MarkerAllowImpure); ok {
		return
	}
	sum.impureUses = append(sum.impureUses, fact{pos, desc})
}

// propagate runs both fixed points. Keys are visited in sorted order, so
// witness-chain construction is deterministic.
func (p *Program) propagate() {
	keys := make([]string, 0, len(p.funcs))
	for k := range p.funcs { //fastsim:order-independent: keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)

	p.fixpoint(keys, p.tainted, func(s *FuncSummary) []fact {
		if s.AllowWallclock {
			return nil
		}
		return s.wallUses
	}, func(e callEdge) bool { return !e.allowWallclock }, func(s *FuncSummary) bool { return !s.AllowWallclock })

	p.fixpoint(keys, p.impure, func(s *FuncSummary) []fact {
		if s.AllowImpure {
			return nil
		}
		return s.impureUses
	}, func(e callEdge) bool { return !e.allowImpure }, func(s *FuncSummary) bool { return !s.AllowImpure })
}

// fixpoint marks every function with a direct fact, then repeatedly marks
// callers through unannotated edges until nothing changes.
func (p *Program) fixpoint(keys []string, out map[string]*propStep,
	direct func(*FuncSummary) []fact, edgeOpen func(callEdge) bool, fnOpen func(*FuncSummary) bool) {
	for _, k := range keys {
		s := p.funcs[k]
		if facts := direct(s); len(facts) > 0 {
			out[k] = &propStep{pos: facts[0].pos, desc: facts[0].desc}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			if out[k] != nil {
				continue
			}
			s := p.funcs[k]
			if !fnOpen(s) {
				continue
			}
			for _, e := range s.calls {
				if !edgeOpen(e) || out[e.callee] == nil {
					continue
				}
				out[k] = &propStep{pos: e.pos, callee: e.callee}
				changed = true
				break
			}
		}
	}
}

// Tainted returns the propagated wall-clock taint step for a function key.
func (p *Program) Tainted(key string) *propStep { return p.tainted[key] }

// Impure returns the propagated impurity step for a function key.
func (p *Program) Impure(key string) *propStep { return p.impure[key] }

// Chain renders the witness chain from (and including) the function key
// down to the root hazard, e.g.
//
//	"taintdep.Stamp → taintdep.now → time.Now (testdata/src/taintdep/dep.go:12)"
//
// and returns the root hazard description alone as well.
func (p *Program) Chain(facts map[string]*propStep, key string) (chain, root string) {
	var parts []string
	for hops := 0; hops < 64; hops++ { // hop cap: witness graphs are acyclic, this is belt and braces
		s := p.funcs[key]
		step := facts[key]
		if s == nil || step == nil {
			break
		}
		parts = append(parts, s.Name)
		if step.callee == "" {
			pos := p.Fset.Position(step.pos)
			fname := pos.Filename
			// Render relative to the working directory when the file is
			// under it, so chains are machine-independent in CI artifacts.
			if p.cwd != "" {
				if rel, err := filepath.Rel(p.cwd, fname); err == nil && !strings.HasPrefix(rel, "..") {
					fname = rel
				}
			}
			parts = append(parts, fmt.Sprintf("%s (%s:%d)", step.desc, fname, pos.Line))
			return strings.Join(parts, " → "), step.desc
		}
		key = step.callee
	}
	return strings.Join(parts, " → "), ""
}

func cwdOrEmpty() string {
	cwd, err := os.Getwd()
	if err != nil {
		return ""
	}
	return cwd
}

// --- classification helpers ---

// wallclockFunc classifies a resolved function as a forbidden host-time or
// global-rand entry point (the same vocabulary the wallclock analyzer
// enforces call-site-locally).
func wallclockFunc(fn *types.Func) (desc string, bad bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false // methods (e.g. on an explicit *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallclockTimeFuncs[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !wallclockRandOK[fn.Name()] {
			return "rand." + fn.Name(), true
		}
	}
	return "", false
}

// syncCall classifies calls into sync and sync/atomic as impurity facts: a
// decision function that synchronizes is coordinating with other
// goroutines, so its result is not a function of simulated history alone.
// Atomic stores are exempt — one-way publication out of the simulation
// (the obs snapshot hand-off) cannot feed a decision.
func syncCall(fn *types.Func) (desc string, bad bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "sync", "sync/atomic":
		if strings.HasPrefix(fn.Name(), "Store") {
			return "", false
		}
		return "calls " + shortFuncName(fn), true
	}
	return "", false
}

// staticCallee resolves a call expression to its static *types.Func: a
// plain function, a package-qualified function, or a concrete method.
// Interface-method and function-value calls resolve to nothing and are
// treated as summary-less (assumed clean).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
					return nil
				}
			}
			return fn
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// shortFuncName renders a function for chain output: "pkg.Func" or
// "pkg.(*Recv).Method".
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	prefix := ""
	if fn.Pkg() != nil {
		prefix = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", prefix, ptr, named.Obj().Name(), name)
		}
	}
	return prefix + name
}

// globalVar reports whether id uses a package-level variable, returning the
// variable and its "pkgpath.name" classification key. Fields, locals,
// constants and package names all resolve to nothing.
func globalVar(info *types.Info, id *ast.Ident, loaded map[string]bool) (*types.Var, string) {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil, ""
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil, ""
	}
	return v, v.Pkg().Path() + "." + v.Name()
}

// mutableGlobals classifies every package-level variable of the loaded
// packages: a global is mutable when any loaded code assigns to it, takes
// its address, or invokes a pointer-receiver method on it (the typed-atomic
// counter idiom). Globals nobody mutates — sentinel errors, lookup tables —
// are effectively immutable, and reading one is pure.
func mutableGlobals(pkgs []*Package) map[string]bool {
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Types.Path()] = true
	}
	mutable := make(map[string]bool)
	markExpr := func(info *types.Info, e ast.Expr) {
		if id := baseIdent(info, e); id != nil {
			if _, key := globalVar(info, id, loaded); key != "" {
				mutable[key] = true
			}
		}
	}
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						markExpr(info, lhs)
					}
				case *ast.IncDecStmt:
					markExpr(info, v.X)
				case *ast.RangeStmt:
					if v.Tok == token.ASSIGN {
						markExpr(info, v.Key)
						markExpr(info, v.Value)
					}
				case *ast.UnaryExpr:
					if v.Op == token.AND {
						markExpr(info, v.X)
					}
				case *ast.SelectorExpr:
					// x.M(...) with pointer receiver mutates x in place.
					if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
						if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
							if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
								markExpr(info, v.X)
							}
						}
					}
				}
				return true
			})
		}
	}
	return mutable
}

// baseIdent unwraps selectors, indexes, parens and derefs to the base
// identifier an lvalue or operand reads from. A package qualifier
// ("pkg.V") is transparent: the selected name is the base, since the
// PkgName itself is not a variable.
func baseIdent(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return v.Sel
				}
			}
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// lvalueRoots records which identifiers in body appear in mutation
// position: assignment targets, inc/dec operands, and address-taken
// expressions.
func lvalueRoots(info *types.Info, body *ast.BlockStmt) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	mark := func(e ast.Expr) {
		if id := baseIdent(info, e); id != nil {
			writes[id] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(v.X)
		case *ast.RangeStmt:
			if v.Tok == token.ASSIGN {
				mark(v.Key)
				mark(v.Value)
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				mark(v.X)
			}
		}
		return true
	})
	return writes
}

// mapRangeBodies returns the spans of every range-over-map body in fn.
func mapRangeBodies(info *types.Info, body *ast.BlockStmt) []posRange {
	var spans []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := info.Types[rs.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				spans = append(spans, posRange{rs.Body.Pos(), rs.Body.End()})
			}
		}
		return true
	})
	return spans
}

func within(spans []posRange, pos token.Pos) bool {
	for _, r := range spans {
		if r.contains(pos) {
			return true
		}
	}
	return false
}

// floatAccumAssign recognises the accumulate-into-float shapes ("x += v",
// "x = x + v" and friends) shared by the floateq analyzer and the purity
// facts.
func floatAccumAssign(info *types.Info, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	tv, ok := info.Types[as.Lhs[0]]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return true
	case token.ASSIGN:
		be, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB && be.Op != token.MUL) {
			return false
		}
		lhs := types.ExprString(as.Lhs[0])
		return types.ExprString(be.X) == lhs || types.ExprString(be.Y) == lhs
	}
	return false
}
