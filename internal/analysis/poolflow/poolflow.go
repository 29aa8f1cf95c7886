// Package poolflow implements the simlint pass that proves linear
// ownership of pooled resources. The simulator recycles its hot objects —
// chunks (chunk.Pool), slab-arena slices (slab.Pool), directory map
// arenas, commit-request envelopes, fetch-request records — and the
// contract is linear: every object drawn from a pool must reach exactly
// one release (Put and its kin) or one sanctioned escape on every path.
// A path that drops an owned object leaks pool capacity (the PR-2
// write-buffer leak and the PR-5 Adopt gating bug were exactly this); a
// path that releases twice or touches the object after release corrupts
// whatever the pool handed the object to next.
//
// Annotation vocabulary:
//
//   - `//sim:pool acquire` on a function or method: its result is a
//     pooled object owned by the caller.
//   - `//sim:pool release` on a function or method: its first argument is
//     returned to the pool.
//   - `//lint:owner <reason>` on a line: ownership legitimately leaves
//     the function there (a cross-function handoff the analysis cannot
//     see); tracked variables mentioned on that line become untracked.
//
// The analysis is flow-sensitive (lintkit.BuildCFG + Solve, union join):
// per local variable it tracks {Owned, Released} along every path.
// Recognized ownership transfers that end tracking without an annotation:
// returning the variable, storing it into a field/index/global, passing
// it to append, placing it in a composite literal, capturing it in a
// closure or go statement, and variable-to-variable moves (the new name
// takes over tracking). Passing the variable to an ordinary call is a
// borrow, not a transfer — that is what keeps use-after-release
// meaningful and what `//lint:owner` exists to override.
//
// Diagnostics: leak (Owned may reach function exit), overwrite
// (rebinding a variable that still owns), double release, use after
// release. `defer release(x)` counts as releasing x at exit. Paths that
// end in panic/os.Exit are exempt.
package poolflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"bulksc/internal/analysis/lintkit"
)

// PoolDirective annotates acquire/release functions: "//sim:pool acquire"
// or "//sim:pool release".
const PoolDirective = "//sim:pool"

// Directive is the line-level ownership-transfer marker.
const Directive = "//lint:owner"

// Analyzer is the poolflow pass.
var Analyzer = &lintkit.Analyzer{
	Name: "poolflow",
	Doc: "prove linear ownership of pooled objects: every //sim:pool acquire result " +
		"reaches exactly one release or sanctioned escape on every path",
	Run: run,
}

// state is the per-variable fact: a bitmask over may-reachable states.
type state uint8

const (
	owned state = 1 << iota
	released
)

// fact maps tracked variables to their may-state. Absent = untracked.
type fact map[types.Object]state

func run(pass *lintkit.Pass) (interface{}, error) {
	acq, rel := collectPoolFuncs(pass.Program)
	if len(acq) == 0 && len(rel) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		sup := pass.Suppressions(file, Directive)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, sup, acq, rel, fn.Body)
			// Function literals run in their own frame with their own
			// paths; analyze each independently. (The enclosing analysis
			// treats captures as escapes.)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, sup, acq, rel, lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// collectPoolFuncs splits the //sim:pool annotations into acquire and
// release sets, keyed by the (origin) function object.
func collectPoolFuncs(prog *lintkit.Program) (acq, rel map[types.Object]bool) {
	acq, rel = make(map[types.Object]bool), make(map[types.Object]bool)
	//lint:deterministic order-insensitive re-keying into verb-split maps
	for obj, args := range lintkit.CollectFuncDirectives(prog, PoolDirective) {
		switch args {
		case "acquire":
			acq[obj] = true
		case "release":
			rel[obj] = true
		}
	}
	return acq, rel
}

type checker struct {
	pass *lintkit.Pass
	sup  *lintkit.Suppressions
	acq  map[types.Object]bool
	rel  map[types.Object]bool

	// acquiredAt/acquiredFrom record the first acquire site per variable
	// for leak messages (side tables, not part of the flow fact).
	acquiredAt   map[types.Object]token.Pos
	acquiredFrom map[types.Object]string

	// deferReleased collects variables released by a deferred call: they
	// are considered released at exit.
	deferReleased map[types.Object]bool

	reported map[token.Pos]bool
}

func checkFunc(pass *lintkit.Pass, sup *lintkit.Suppressions, acq, rel map[types.Object]bool, body *ast.BlockStmt) {
	c := &checker{
		pass: pass, sup: sup, acq: acq, rel: rel,
		acquiredAt:    make(map[types.Object]token.Pos),
		acquiredFrom:  make(map[types.Object]string),
		deferReleased: make(map[types.Object]bool),
		reported:      make(map[token.Pos]bool),
	}
	cfg := lintkit.BuildCFG(body)
	for _, d := range cfg.Defers {
		if obj, _ := c.releaseTarget(d.Call); obj != nil {
			c.deferReleased[obj] = true
		}
	}
	ins := lintkit.Solve(cfg, lintkit.FlowSpec[fact]{
		Entry:  func() fact { return fact{} },
		Bottom: func() fact { return fact{} },
		Clone:  cloneFact,
		Join:   joinFact,
		Equal:  equalFact,
		Transfer: func(b *lintkit.Block, in fact) fact {
			for _, n := range b.Nodes {
				c.transferNode(n, in, false)
			}
			return in
		},
	})
	// Reporting sweep: re-run each block once over its solved in-fact.
	for _, b := range cfg.Blocks {
		f := cloneFact(ins[b])
		for _, n := range b.Nodes {
			c.transferNode(n, f, true)
		}
	}
	// Leak check at exit: anything that may still be owned.
	exit := ins[cfg.Exit]
	var exitObjs []types.Object
	for obj := range exit {
		exitObjs = append(exitObjs, obj)
	}
	sort.Slice(exitObjs, func(i, j int) bool { return exitObjs[i].Pos() < exitObjs[j].Pos() })
	for _, obj := range exitObjs {
		if exit[obj]&owned == 0 || c.deferReleased[obj] {
			continue
		}
		pos := c.acquiredAt[obj]
		if pos == token.NoPos {
			pos = obj.Pos()
		}
		if c.reported[pos] || c.sup.Suppressed(pos) {
			continue
		}
		c.reported[pos] = true
		c.pass.Reportf(pos, "pooled object %q acquired from %s may reach function exit without release "+
			"(leaks pool capacity on that path; release it, or mark the handoff %s <reason>)",
			obj.Name(), c.acquiredFrom[obj], Directive)
	}
}

func cloneFact(f fact) fact {
	g := make(fact, len(f))
	//lint:deterministic order-insensitive set copy; result is a map again
	for k, v := range f {
		g[k] = v
	}
	return g
}

func joinFact(dst, src fact) fact {
	//lint:deterministic order-insensitive set union; |= commutes
	for k, v := range src {
		dst[k] |= v
	}
	return dst
}

func equalFact(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	//lint:deterministic order-independent set comparison
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// calleeOf resolves a call's static callee to its origin function object,
// or nil for builtins, func values and interface-typed callees.
func (c *checker) calleeOf(call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin() // normalize generic instantiations (slab.Pool[T])
	}
	return nil
}

// releaseTarget reports the variable a call releases: the call must
// resolve to a //sim:pool release function and its first argument must be
// a plain identifier of a local or parameter.
func (c *checker) releaseTarget(call *ast.CallExpr) (types.Object, *ast.Ident) {
	callee := c.calleeOf(call)
	if callee == nil || !c.rel[callee] || len(call.Args) == 0 {
		return nil, nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
		// Only locals/params: package-level vars and fields are out of
		// scope for an intraprocedural ownership proof.
		return nil, nil
	}
	return v, id
}

// isAcquireCall reports whether e is a call to an acquire function.
func (c *checker) isAcquireCall(e ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	callee := c.calleeOf(call)
	if callee == nil || !c.acq[callee] {
		return nil, ""
	}
	return call, callee.Name()
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if c.reported[pos] {
		return
	}
	if c.sup.Suppressed(pos) {
		c.reported[pos] = true
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// transferNode applies one CFG node's effect to the fact. With report set
// it also emits diagnostics (the solve phase runs silently first).
func (c *checker) transferNode(n ast.Node, f fact, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.transferAssign(n, f, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.bindIfAcquire(name, vs.Values[i], f, report)
					}
				}
				for _, v := range vs.Values {
					c.transferExpr(v, f, report)
				}
			}
		}
	case *ast.ExprStmt:
		c.transferExpr(n.X, f, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			// Returning a tracked variable hands ownership to the caller.
			if obj := c.trackedIdent(r, f); obj != nil {
				delete(f, obj)
				continue
			}
			c.transferExpr(r, f, report)
		}
	case *ast.DeferStmt:
		// Argument evaluation point: the deferred release itself runs at
		// exit (handled via deferReleased). Check args for use-after-put
		// but do not treat the call as executing here.
		if obj, _ := c.releaseTarget(n.Call); obj != nil {
			return
		}
		for _, a := range n.Call.Args {
			c.transferExpr(a, f, report)
		}
	case *ast.GoStmt:
		// The goroutine may outlive this frame: captured/passed tracked
		// variables escape.
		c.escapeAll(n.Call, f)
	case *ast.RangeStmt:
		// Key/Value rebind on every iteration: fresh, untracked bindings.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					delete(f, obj)
				} else if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
					delete(f, obj) // for x = range (assign form)
				}
			}
		}
		c.transferExpr(n.X, f, report)
	case *ast.IncDecStmt:
		c.transferExpr(n.X, f, report)
	case *ast.SendStmt:
		// Sending a tracked variable over a channel is an escape.
		if obj := c.trackedIdent(n.Value, f); obj != nil {
			delete(f, obj)
		} else {
			c.transferExpr(n.Value, f, report)
		}
		c.transferExpr(n.Chan, f, report)
	case ast.Expr:
		c.transferExpr(n, f, report)
	case *ast.BranchStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		// no data effects
	case ast.Stmt:
		// Conservative default for statement forms without special
		// handling: scan contained expressions.
		ast.Inspect(n, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok {
				c.transferExpr(e, f, report)
				return false
			}
			return true
		})
	}
}

// bindIfAcquire handles `name := acquire(...)` / `var name = acquire(...)`
// bindings; returns true when name became tracked.
func (c *checker) bindIfAcquire(name *ast.Ident, rhs ast.Expr, f fact, report bool) bool {
	call, from := c.isAcquireCall(rhs)
	if call == nil || name.Name == "_" {
		return false
	}
	obj := c.pass.TypesInfo.Defs[name]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[name]
	}
	if obj == nil {
		return false
	}
	if report {
		if old, ok := f[obj]; ok && old&owned != 0 && old&released == 0 {
			c.report(name.Pos(), "pooled object %q is reassigned while still owning its previous %s result "+
				"(the old object leaks)", name.Name, c.acquiredFrom[obj])
		}
	}
	f[obj] = owned
	if _, ok := c.acquiredAt[obj]; !ok {
		c.acquiredAt[obj] = name.Pos()
		c.acquiredFrom[obj] = from
	}
	// Evaluate the call's own arguments for uses.
	for _, a := range call.Args {
		c.transferExpr(a, f, report)
	}
	return true
}

func (c *checker) transferAssign(as *ast.AssignStmt, f fact, report bool) {
	// RHS first (evaluation order), then LHS binding/escape effects.
	handled := make(map[int]bool)
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if c.bindIfAcquire(id, as.Rhs[i], f, report) {
					handled[i] = true
					continue
				}
				// Variable-to-variable move: the new name takes over.
				if obj := c.trackedIdent(as.Rhs[i], f); obj != nil && id.Name != "_" {
					st := f[obj]
					delete(f, obj)
					var dst types.Object
					if as.Tok == token.DEFINE {
						dst = c.pass.TypesInfo.Defs[id]
					} else {
						dst = c.pass.TypesInfo.Uses[id]
					}
					if dst != nil {
						f[dst] = st
						if _, ok := c.acquiredAt[dst]; !ok {
							c.acquiredAt[dst] = c.acquiredAt[obj]
							c.acquiredFrom[dst] = c.acquiredFrom[obj]
						}
					}
					handled[i] = true
					continue
				}
			}
			// Store into a field/index/deref: a tracked RHS escapes there.
			if !isIdentTarget(as.Lhs[i]) {
				if obj := c.trackedIdent(as.Rhs[i], f); obj != nil {
					delete(f, obj)
					handled[i] = true
				}
			}
		}
	}
	for i, r := range as.Rhs {
		if !handled[i] {
			c.transferExpr(r, f, report)
		}
	}
	for i, l := range as.Lhs {
		if handled[i] {
			continue
		}
		if id, ok := l.(*ast.Ident); ok {
			// Rebinding to an untracked value: the old tracking (if any)
			// is overwritten. Report an overwrite-leak if still owned.
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = c.pass.TypesInfo.Defs[id]
			} else {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				if st, ok := f[obj]; ok {
					if report && st&owned != 0 && st&released == 0 {
						c.report(id.Pos(), "pooled object %q is overwritten while still owned "+
							"(the %s result acquired earlier leaks)", id.Name, c.acquiredFrom[obj])
					}
					delete(f, obj)
				}
			}
		} else {
			c.transferExpr(l, f, report)
		}
	}
}

func isIdentTarget(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.Ident)
	return ok
}

// trackedIdent returns the tracked variable e names, or nil.
func (c *checker) trackedIdent(e ast.Expr, f fact) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if _, tracked := f[obj]; tracked {
		return obj
	}
	return nil
}

// transferExpr walks one expression: applies releases, escapes and
// use-after-release checks.
func (c *checker) transferExpr(e ast.Expr, f fact, report bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.transferCall(n, f, report)
			return false
		case *ast.FuncLit:
			// Captured tracked variables escape into the closure.
			c.escapeAll(n, f)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if obj := c.trackedIdent(el, f); obj != nil {
					delete(f, obj) // stored into a structure: escapes
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if obj := c.trackedIdent(n.X, f); obj != nil {
					delete(f, obj) // address taken: aliasing defeats tracking
					return false
				}
			}
		case *ast.Ident:
			c.checkUse(n, f, report)
		}
		return true
	})
}

// transferCall handles one call: release recognition, //lint:owner
// transfer lines, append escapes, and borrow semantics for everything
// else.
func (c *checker) transferCall(call *ast.CallExpr, f fact, report bool) {
	// Release call?
	if obj, id := c.releaseTarget(call); obj != nil {
		st, tracked := f[obj]
		if tracked && st&released != 0 && report {
			c.report(call.Pos(), "pooled object %q released twice (%s already released it on this path)",
				id.Name, c.acquiredFrom[obj])
		}
		f[obj] = (st | released) &^ owned
		// Remaining args are ordinary uses.
		for _, a := range call.Args[1:] {
			c.transferExpr(a, f, report)
		}
		c.transferExpr(call.Fun, f, report)
		return
	}

	// append(dst, x...): appended tracked values are retained by the
	// slice — an escape.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, a := range call.Args[1:] {
					if obj := c.trackedIdent(a, f); obj != nil {
						delete(f, obj)
					} else {
						c.transferExpr(a, f, report)
					}
				}
				if len(call.Args) > 0 {
					c.transferExpr(call.Args[0], f, report)
				}
				return
			}
		}
	}

	// A //lint:owner line on the call sanctions handing tracked arguments
	// off through it. (Suppressed marks the directive used only when it
	// actually transfers something, so decorative owner comments go stale.)
	for _, a := range call.Args {
		obj := c.trackedIdent(a, f)
		if obj == nil {
			continue
		}
		if f[obj]&owned != 0 && c.sup.Suppressed(call.Pos()) {
			delete(f, obj)
		}
	}

	// Everything else: arguments are borrowed, which still counts as a
	// use (use-after-release applies).
	for _, a := range call.Args {
		c.transferExpr(a, f, report)
	}
	c.transferExpr(call.Fun, f, report)
}

// checkUse flags reads of a variable that has definitely been released.
func (c *checker) checkUse(id *ast.Ident, f fact, report bool) {
	if !report {
		return
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	st, tracked := f[obj]
	if tracked && st&released != 0 && st&owned == 0 {
		c.report(id.Pos(), "pooled object %q used after release (the pool may already have handed it out again)",
			id.Name)
	}
}

// escapeAll removes every tracked variable referenced anywhere inside n.
func (c *checker) escapeAll(n ast.Node, f fact) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				delete(f, obj)
			}
		}
		return true
	})
}
