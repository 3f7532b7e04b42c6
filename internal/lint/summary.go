package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural substrate: every declared function in the module gets
// one FuncInfo summary — its allocation, lock, spawn, opaque-call and
// error-discard sites, its resolved module-internal call sites,
// the lock names it acquires, and which of its parameters it retains in
// memory that outlives the call. Summaries are collected in one AST pass
// per function and then closed to a fixed point over the module-wide call
// graph (transitive purity for R7, transitive acquire sets for R2,
// transitive parameter retention for R8), so each rule is a cheap query
// instead of a bespoke whole-module walk.

// Site is one recorded fact location inside a function body.
type Site struct {
	Pos    token.Pos
	What   string
	Waived bool // a justified line-scope directive waives the site
}

// CallSite is one call resolved to a module-internal function. Args is
// receiver-first, aligned with the callee's Params.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
	Args   []ast.Expr
}

// Impurity explains why a function is transitively not kernel-pure: the
// root offending site and the call chain that reaches it.
type Impurity struct {
	What string
	Pos  token.Pos
	Via  []string // call chain toward the site, outermost callee first
}

// FuncInfo is the summary of one declared function or method.
type FuncInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	Fn   *types.Func

	Kernel bool // //geslint:kernel — must be transitively pure (R7)

	Allocs []Site // allocation sites (waivable //geslint:alloc-ok)
	Locks  []Site // mutex acquisitions
	Spawns []Site // go statements
	Opaque []Site // calls whose effects cannot be analyzed

	Calls    []CallSite
	Acquires map[string]bool // lock names, closed transitively (R2)

	ErrDiscards []Site // silently discarded errors (R10)

	Params  []*types.Var // receiver-first
	Retains []bool       // param escapes into long-lived memory (R8)

	env    *maskEnv // parameter-label environment, kept for call-site queries
	impure *Impurity
}

// Pure reports whether the function is transitively allocation-, lock- and
// spawn-free with no opaque calls.
func (fi *FuncInfo) Pure() bool { return fi.impure == nil }

// Impure returns the impurity witness, or nil for pure functions.
func (fi *FuncInfo) Impure() *Impurity { return fi.impure }

// pureExternal lists the non-module packages whose calls are accepted
// inside kernels: atomic loads/stores and pure arithmetic never allocate,
// lock, or spawn. Everything else outside the module is opaque.
var pureExternal = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// funcLabel renders Type.Method or Func for diagnostics.
func funcLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// isModuleFunc reports whether fn is declared inside the analyzed module.
func (a *Analysis) isModuleFunc(fn *types.Func) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	return p.Path() == a.mod.Path || strings.HasPrefix(p.Path(), a.mod.Path+"/")
}

// calleeFunc resolves a call expression to its static callee, across
// package boundaries; a generic callee resolves to its declaration, whose
// summary it shares. nil means the callee is dynamic (function value,
// interface method dispatch) or not a function at all.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[fun]; s != nil {
			if s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr {
				if fn, ok := s.Obj().(*types.Func); ok {
					if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() != nil {
						if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
							return nil // interface dispatch is dynamic
						}
					}
					return fn.Origin()
				}
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin() // package-qualified call
		}
	}
	return nil
}

// buildSummaries walks every declared function once, collecting direct
// facts. mod.Pkgs is sorted and files/decls are in source order, so
// funcOrder — and with it every fixed point below — is deterministic.
func (a *Analysis) buildSummaries() {
	for _, pkg := range a.mod.Pkgs {
		for _, f := range pkg.Files {
			fctx := &fileCtx{
				allocOK: lineReasons(a.mod.Fset, f, "alloc-ok"),
				errOK:   lineReasons(a.mod.Fset, f, "err-ok"),
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.ObjectOf(fd.Name).(*types.Func)
				if !ok {
					continue
				}
				fi := a.summarize(pkg, f, fd, fn, fctx)
				a.funcs[fn] = fi
				a.funcOrder = append(a.funcOrder, fi)
			}
		}
	}
}

// fileCtx carries the per-file waiver lines every summary in the file
// shares.
type fileCtx struct {
	allocOK map[int]string
	errOK   map[int]string
}

// summarize collects one function's direct facts in a single AST pass.
func (a *Analysis) summarize(pkg *Package, f *ast.File, fd *ast.FuncDecl, fn *types.Func, fctx *fileCtx) *FuncInfo {
	fset := a.mod.Fset
	fi := &FuncInfo{Pkg: pkg, File: f, Decl: fd, Fn: fn, Acquires: map[string]bool{}}
	docPos := token.NoPos
	if fd.Doc != nil {
		docPos = fd.Doc.Pos()
	}
	fi.Kernel = declDirective(fset, f, "kernel", docPos, fd.Pos()) != nil

	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		fi.Params = append(fi.Params, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		fi.Params = append(fi.Params, sig.Params().At(i))
	}
	fi.Retains = make([]bool, len(fi.Params))

	// Parameter-label environment: bit i marks values derived from param i.
	fi.env = &maskEnv{pkg: pkg, objs: map[types.Object]uint64{}}
	for i, p := range fi.Params {
		if i >= 63 {
			break
		}
		if hasRefs(p.Type()) {
			fi.env.objs[p] = 1 << uint(i)
		}
	}
	fi.env.solve(fd.Body)

	site := func(pos token.Pos, what string, waivers map[int]string) Site {
		return Site{Pos: pos, What: what,
			Waived: waivers != nil && waivedAt(waivers, fset.Position(pos).Line)}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			fi.Spawns = append(fi.Spawns, site(x.Pos(), "go statement", nil))
		case *ast.FuncLit:
			fi.Allocs = append(fi.Allocs, site(x.Pos(), "closure allocation", fctx.allocOK))
		case *ast.CompositeLit:
			switch pkg.Info.TypeOf(x).Underlying().(type) {
			case *types.Slice, *types.Map:
				fi.Allocs = append(fi.Allocs, site(x.Pos(), "composite literal allocation", fctx.allocOK))
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, lit := x.X.(*ast.CompositeLit); lit {
					fi.Allocs = append(fi.Allocs, site(x.Pos(), "heap literal (&T{...})", fctx.allocOK))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if b, ok := pkg.Info.TypeOf(x).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					fi.Allocs = append(fi.Allocs, site(x.Pos(), "string concatenation", fctx.allocOK))
				}
			}
		case *ast.CallExpr:
			a.summarizeCall(pkg, fi, x, fctx, site)
		case *ast.AssignStmt:
			a.blankErrDiscards(pkg, fi, x, fctx, site)
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				a.bareErrDiscard(pkg, fi, call, fctx, site)
			}
		case *ast.DeferStmt:
			a.bareErrDiscard(pkg, fi, x.Call, fctx, site)
		}
		return true
	})

	// Direct parameter retention: a parameter-derived value stored into
	// caller-visible or package-level memory escapes the call.
	for _, esc := range a.scanEscapes(pkg, fd.Body, fi.env) {
		flagParams(fi.Retains, esc.mask&^esc.rootMask) // self-stores don't retain the root
	}
	return fi
}

// summarizeCall classifies one call expression: conversion, builtin, mutex
// operation, resolved module call, allowlisted external, or opaque.
func (a *Analysis) summarizeCall(pkg *Package, fi *FuncInfo, call *ast.CallExpr, fctx *fileCtx, site func(token.Pos, string, map[int]string) Site) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringBytesConv(pkg.Info.TypeOf(call.Args[0]), tv.Type) {
			fi.Allocs = append(fi.Allocs, site(call.Pos(), "string/[]byte conversion", fctx.allocOK))
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				fi.Allocs = append(fi.Allocs, site(call.Pos(), b.Name(), fctx.allocOK))
			}
			return
		}
	}
	if op, lock, ok := a.mutexOp(pkg, call); ok {
		if op == "Lock" || op == "RLock" {
			fi.Locks = append(fi.Locks, site(call.Pos(), op+" of "+lock, nil))
			fi.Acquires[lock] = true
		}
		return
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		fi.Opaque = append(fi.Opaque,
			site(call.Pos(), "dynamic call (function value or interface method)", fctx.allocOK))
		return
	}
	if a.isModuleFunc(fn) {
		fi.Calls = append(fi.Calls, CallSite{Callee: fn, Pos: call.Pos(), Args: callArgs(pkg, call)})
		return
	}
	if fn.Pkg() != nil && !pureExternal[fn.Pkg().Path()] {
		fi.Opaque = append(fi.Opaque,
			site(call.Pos(), "call to "+fn.Pkg().Path()+"."+funcLabel(fn), fctx.allocOK))
	}
}

// stringBytesConv reports the conversions that copy their operand: string
// <-> []byte / []rune.
func stringBytesConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteSlice(to)) || (isByteSlice(from) && isStr(to))
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// callErrResults returns the callee and the positions of error-typed
// results when call resolves to a module-internal function returning one.
func (a *Analysis) callErrResults(pkg *Package, call *ast.CallExpr) (*types.Func, []int) {
	fn := calleeFunc(pkg, call)
	if fn == nil || !a.isModuleFunc(fn) {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	var errIdx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			errIdx = append(errIdx, i)
		}
	}
	return fn, errIdx
}

// bareErrDiscard flags `f()` / `defer f()` statements that drop a module
// function's error result on the floor (R10).
func (a *Analysis) bareErrDiscard(pkg *Package, fi *FuncInfo, call *ast.CallExpr, fctx *fileCtx, site func(token.Pos, string, map[int]string) Site) {
	fn, errIdx := a.callErrResults(pkg, call)
	if len(errIdx) == 0 {
		return
	}
	fi.ErrDiscards = append(fi.ErrDiscards,
		site(call.Pos(), "error from "+funcLabel(fn)+" discarded by bare call", fctx.errOK))
}

// blankErrDiscards flags `_ = f()` and `v, _ := g()` assignments that blank
// a module function's error result (R10). Result k of the call at Rhs[i]
// lands in Lhs[i+k]: a 1:1 assignment has single-result calls, a tuple
// assignment one call.
func (a *Analysis) blankErrDiscards(pkg *Package, fi *FuncInfo, as *ast.AssignStmt, fctx *fileCtx, site func(token.Pos, string, map[int]string) Site) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, errIdx := a.callErrResults(pkg, call)
		for _, k := range errIdx {
			if id, ok := as.Lhs[i+k].(*ast.Ident); ok && id.Name == "_" {
				fi.ErrDiscards = append(fi.ErrDiscards,
					site(as.Pos(), "error from "+funcLabel(fn)+" assigned to _", fctx.errOK))
				break
			}
		}
	}
}

// ---------------------------------------------------------------- closures

// closeAcquires propagates lock-acquire sets over the module-wide call
// graph to a fixed point, so R2 sees nesting hidden behind helpers in any
// package.
func (a *Analysis) closeAcquires() {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcOrder {
			for _, c := range fi.Calls {
				callee := a.funcs[c.Callee]
				if callee == nil || callee == fi {
					continue
				}
				for lock := range callee.Acquires {
					if !fi.Acquires[lock] {
						fi.Acquires[lock] = true
						changed = true
					}
				}
			}
		}
	}
}

// flagParams sets flags[i] for every parameter label i in mask and reports
// whether any flag was new.
func flagParams(flags []bool, mask uint64) bool {
	changed := false
	for i := range flags {
		if i < 63 && mask&(1<<uint(i)) != 0 && !flags[i] {
			flags[i] = true
			changed = true
		}
	}
	return changed
}

// takenArgs visits every argument j of fi's module calls that the callee
// takes, as takes decides.
func (a *Analysis) takenArgs(fi *FuncInfo, takes func(callee *FuncInfo, j int, arg ast.Expr) bool, visit func(callee *FuncInfo, j int, arg ast.Expr)) {
	for _, c := range fi.Calls {
		if callee := a.funcs[c.Callee]; callee != nil {
			for j, arg := range c.Args {
				if j < len(callee.Params) && takes(callee, j, arg) {
					visit(callee, j, arg)
				}
			}
		}
	}
}

// closeParams closes a per-parameter flag over the call graph to a fixed
// point: a function flags parameter i when it passes a value derived from i
// to a callee that takes it.
func (a *Analysis) closeParams(flags func(*FuncInfo) []bool, takes func(callee *FuncInfo, j int, arg ast.Expr) bool) {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcOrder {
			a.takenArgs(fi, takes, func(_ *FuncInfo, _ int, arg ast.Expr) {
				changed = flagParams(flags(fi), fi.env.exprMask(arg)) || changed
			})
		}
	}
}

// retainsArg reports whether callee keeps argument j beyond the call. A
// function-literal argument is call-synchronous (a callback) and does not
// count; a spawned one is R5's beat.
func retainsArg(callee *FuncInfo, j int, arg ast.Expr) bool {
	_, isLit := ast.Unparen(arg).(*ast.FuncLit)
	return callee.Retains[j] && !isLit
}

// closeImpurity computes transitive purity: a function is impure when it
// has an unwaived direct site or calls an impure (or unanalyzable)
// function. Deterministic because funcOrder and call order are.
func (a *Analysis) closeImpurity() {
	firstDirect := func(fi *FuncInfo) *Impurity {
		best := func(sites []Site) *Site {
			for i := range sites {
				if !sites[i].Waived {
					return &sites[i]
				}
			}
			return nil
		}
		var first *Site
		for _, group := range [][]Site{fi.Allocs, fi.Locks, fi.Spawns, fi.Opaque} {
			if s := best(group); s != nil && (first == nil || s.Pos < first.Pos) {
				first = s
			}
		}
		if first == nil {
			return nil
		}
		return &Impurity{What: first.What, Pos: first.Pos}
	}
	for _, fi := range a.funcOrder {
		fi.impure = firstDirect(fi)
		if fi.impure != nil {
			continue
		}
		// Module-internal callees without a body summary (none exist today,
		// but interface methods resolved to module packages would land
		// here) are unanalyzable.
		for _, c := range fi.Calls {
			if a.funcs[c.Callee] == nil {
				fi.impure = &Impurity{
					What: fmt.Sprintf("call to %s (no analyzable body)", funcLabel(c.Callee)),
					Pos:  c.Pos,
				}
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcOrder {
			if fi.impure != nil {
				continue
			}
			for _, c := range fi.Calls {
				callee := a.funcs[c.Callee]
				if callee == nil || callee.impure == nil {
					continue
				}
				via := append([]string{funcLabel(c.Callee)}, callee.impure.Via...)
				if len(via) > 8 {
					via = via[:8]
				}
				fi.impure = &Impurity{What: callee.impure.What, Pos: callee.impure.Pos, Via: via}
				changed = true
				break
			}
		}
	}
}
