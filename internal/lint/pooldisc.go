package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// R11: pool discipline. The size-classed pool (§5) only amortizes
// allocation when every transiently acquired buffer comes back: a
// storage.Arena / storage.Pool Get* call whose result is dropped on the
// floor silently degrades the pool into a plain allocator (and, for
// arena-scoped Gets, inflates the arena's live-byte accounting until
// Release). So in every package outside internal/storage — which owns the
// pool and its internals — each transient acquire must be discharged by
// the acquiring function:
//
//   - a matching Put* (GetVIDs pairs with PutVIDs, the column getters with
//     PutColumn, and so on), found through the local alias taint so
//     reslices, appends, and closure captures don't hide the pairing;
//   - an ownership hand-off: returning the buffer, storing it into a
//     struct field / slice / map (the container's lifecycle now owns it —
//     VarLengthExpand's bfs state, whose frontier buffers and batch are put
//     back when its traversal ends, is the canonical case), sending it on a
//     channel, or passing it to a module-internal callee that (transitively)
//     releases or retains it, closed over the discharge and retention
//     summaries;
//   - or a //geslint:leak-ok <why> waiver on or above the Get.
//
// Arena.Own* calls are deliberately out of scope: owned structures are
// query-lifetime by contract and returned wholesale by Arena.Release.
//
// Known false negatives, accepted by design (mirroring R8): a hand-off to
// a callee that merely drops the buffer, and a Put on one path while
// another path leaks. Both keep the rule quiet enough to run clean on the
// real module; the -tags gesassert poison discipline catches the dynamic
// counterparts at runtime.

// poolPairs maps the transient acquire methods of storage.Pool and
// storage.Arena to the release method that discharges them.
var poolPairs = map[string]string{
	"GetVIDs":   "PutVIDs",
	"GetInt32s": "PutInt32s",
	"GetRanges": "PutRanges",
	"GetBatch":  "PutBatch",
	"GetFBlock": "PutFBlock",
	"GetFTree":  "PutFTree",
	"GetBitset": "PutBitset",
	"GetArena":  "PutArena",
	// The two column getters share one release path.
	"GetColumn":     "PutColumn",
	"GetDictColumn": "PutColumn",
}

// poolPuts is the release-method name set of poolPairs.
var poolPuts = func() map[string]bool {
	out := map[string]bool{}
	for _, put := range poolPairs {
		out[put] = true
	}
	return out
}()

// isPoolRecv reports whether e is a storage.Arena or storage.Pool value —
// the two receivers whose Get*/Put* methods R11 polices.
func (a *Analysis) isPoolRecv(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	return a.isType(t, "internal/storage", "Arena") ||
		a.isType(t, "internal/storage", "Pool")
}

// callArgs returns call's arguments receiver-first, aligned with the
// callee's Params summary (the same shape CallSite.Args carries).
func callArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
	}
	return call.Args
}

// closeReturnMasks computes, to a fixed point, each function's pass-through
// mask: the parameters whose labels may flow into its return values. The
// fill-style helpers of the expand operators (take a pooled buffer, append
// into it, return the same backing) keep their argument's obligation alive
// on the result this way, so `srcs := fill(arena.GetVIDs(n)); Put(srcs)` is
// recognized as a pairing. Locals assigned from pass-through calls and then
// returned are a known false negative (the per-function environments are not
// re-solved under the hook); the expression-level chain covers the module.
func (a *Analysis) closeReturnMasks() map[*FuncInfo]uint64 {
	ret := map[*FuncInfo]uint64{}
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcOrder {
			env := &maskEnv{pkg: fi.Pkg, objs: fi.env.objs}
			env.src = a.passthroughSrc(fi.Pkg, env, ret)
			mask := ret[fi]
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // a closure's returns are not the function's
				}
				if r, ok := n.(*ast.ReturnStmt); ok {
					for _, res := range r.Results {
						mask |= env.exprMask(res)
					}
				}
				return true
			})
			if mask != ret[fi] {
				ret[fi] = mask
				changed = true
			}
		}
	}
	return ret
}

// passthroughSrc is the label hook applying return masks at call sites: a
// module call whose callee passes parameter j through to its results carries
// argument j's labels on its result.
func (a *Analysis) passthroughSrc(pkg *Package, env *maskEnv, ret map[*FuncInfo]uint64) func(ast.Expr) uint64 {
	return func(e ast.Expr) uint64 {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return 0
		}
		fn := calleeFunc(pkg, call)
		if fn == nil {
			return 0
		}
		callee := a.funcs[fn]
		if callee == nil || ret[callee] == 0 {
			return 0
		}
		var out uint64
		for j, arg := range callArgs(pkg, call) {
			if j < 63 && ret[callee]&(1<<uint(j)) != 0 {
				out |= env.exprMask(arg)
			}
		}
		return out
	}
}

// poolPut decomposes a call into a storage Pool/Arena Put*: the release
// method's name and the released buffer.
func (a *Analysis) poolPut(pkg *Package, n ast.Node) (string, ast.Expr, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil, false
	}
	recv, fn, ok := methodCall(pkg, call)
	if !ok || !poolPuts[fn.Name()] || len(call.Args) == 0 || !a.isPoolRecv(pkg, recv) {
		return "", nil, false
	}
	return fn.Name(), call.Args[0], true
}

// closePoolDischarges computes, to a fixed point over the call graph, which
// parameters each function discharges: a param-derived value handed to a
// Put* call, or passed on to a callee that discharges or retains it. The
// per-function R11 check consults this map so a Get handed to a helper that
// releases it is not a finding.
func (a *Analysis) closePoolDischarges() (takes func(callee *FuncInfo, j int, arg ast.Expr) bool) {
	dis := map[*FuncInfo][]bool{}
	for _, fi := range a.funcOrder {
		d := make([]bool, len(fi.Params))
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if _, arg, ok := a.poolPut(fi.Pkg, n); ok {
				flagParams(d, fi.env.exprMask(arg))
			}
			return true
		})
		dis[fi] = d
	}
	takes = func(callee *FuncInfo, j int, _ ast.Expr) bool {
		return dis[callee][j] || callee.Retains[j]
	}
	a.closeParams(func(fi *FuncInfo) []bool { return dis[fi] }, takes)
	return takes
}

// poolObligation is one transient acquire site awaiting discharge.
type poolObligation struct {
	pos token.Pos
	bit uint64
	get string // acquire method name
	put string // matching release method name
}

// checkPoolDiscipline runs R11 over every summarized function outside the
// pool-owner package. Each Get site gets one taint label bit; the bit is
// discharged when a labelled value reaches a matching Put, a return, a
// container store, a channel send, or a callee that discharges or retains
// it.
func (a *Analysis) checkPoolDiscipline() {
	fset := a.mod.Fset
	takes := a.closePoolDischarges()
	retMasks := a.closeReturnMasks()
	for _, fi := range a.funcOrder {
		if fi.Pkg.Rel == "internal/storage" {
			continue
		}
		// Pass 1: assign one label bit per transient acquire site.
		var obs []poolObligation
		bitFor := map[*ast.CallExpr]uint64{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, fn, ok := methodCall(fi.Pkg, call)
			if !ok {
				return true
			}
			put, isGet := poolPairs[fn.Name()]
			if !isGet || !a.isPoolRecv(fi.Pkg, recv) {
				return true
			}
			if len(obs) >= 62 {
				return true // label budget; excess sites go unchecked
			}
			bit := uint64(1) << uint(len(obs))
			bitFor[call] = bit
			obs = append(obs, poolObligation{pos: call.Pos(), bit: bit,
				get: fn.Name(), put: put})
			return true
		})
		if len(obs) == 0 {
			continue
		}
		env := &maskEnv{pkg: fi.Pkg, objs: map[types.Object]uint64{}}
		passthrough := a.passthroughSrc(fi.Pkg, env, retMasks)
		env.src = func(e ast.Expr) uint64 {
			if call, ok := e.(*ast.CallExpr); ok {
				if bit := bitFor[call]; bit != 0 {
					return bit
				}
			}
			// Obligations survive fill-style helpers that return their buffer
			// argument's backing array.
			return passthrough(e)
		}
		env.solve(fi.Decl.Body)

		// Pass 2: collect discharges.
		var discharged uint64
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if put, arg, ok := a.poolPut(fi.Pkg, n); ok {
				m := env.exprMask(arg)
				for _, ob := range obs {
					if m&ob.bit != 0 && put == ob.put {
						discharged |= ob.bit
					}
				}
			}
			switch x := n.(type) {
			case *ast.ReturnStmt:
				// Ownership transfers to the caller.
				for _, r := range x.Results {
					discharged |= env.exprMask(r)
				}
			case *ast.AssignStmt:
				// A store through a field, index, or pointer hands the buffer
				// to the container's lifecycle (scratch structs).
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					switch ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						discharged |= env.exprMask(x.Rhs[i])
					}
				}
			case *ast.SendStmt:
				discharged |= env.exprMask(x.Value)
			}
			return true
		})
		// Interprocedural hand-offs: a labelled argument flowing into a
		// parameter the callee discharges or retains.
		a.takenArgs(fi, takes, func(_ *FuncInfo, _ int, arg ast.Expr) {
			discharged |= env.exprMask(arg)
		})

		okLines := lineReasons(fset, fi.File, "leak-ok")
		for _, ob := range obs {
			if discharged&ob.bit != 0 {
				continue
			}
			if waivedAt(okLines, fset.Position(ob.pos).Line) {
				continue
			}
			a.report(ob.pos, "R11",
				"%s acquires a transient pooled buffer that no path releases or hands off; pair it with %s, transfer ownership, or annotate //geslint:leak-ok <why>",
				ob.get, ob.put)
		}
	}
}
