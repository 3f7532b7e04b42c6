package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The shared local-dataflow engine behind R3, R4, R6 (boolean alias taint)
// and R7–R8 (labelled masks: which parameters or snapshot sources a value
// derives from). Both are flow-insensitive fixed points over a function or
// file body: an object becomes tainted when it is ever assigned a derived
// expression, and derivation follows the aliasing structure of Go values —
// indexing, slicing, field selection, address-of, and the aliasing half of
// append — while stopping at value copies of pointer-free data.

// taintedObjs computes the objects assigned (transitively, to a fixpoint)
// from expressions matched by src — the simple local-alias taint R3 and R4
// use to catch `sel := node.Sel; sel.Clear(i)`. root may be a file or a
// single function body.
func taintedObjs(pkg *Package, root ast.Node, src func(ast.Expr) bool) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	isSrc := func(e ast.Expr) bool {
		if src(e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			return tainted[pkg.Info.ObjectOf(id)]
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(root, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isSrc(as.Rhs[i]) {
					continue
				}
				if obj := pkg.Info.ObjectOf(id); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// hasRefs reports whether values of t can alias other memory: basic types
// and pointer-free aggregates are value-copied by assignment, so taint does
// not flow through them.
func hasRefs(t types.Type) bool {
	return hasRefsDepth(t, 0)
}

func hasRefsDepth(t types.Type, depth int) bool {
	if depth > 8 || t == nil {
		return true // give up conservatively on deep or unknown types
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return hasRefsDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasRefsDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	default:
		// Pointers, slices, maps, chans, funcs, interfaces, type params.
		return true
	}
}

// maskEnv is one function's labelled-taint state: each tracked object maps
// to the bitmask of labels (parameters, snapshot sources) its value may
// derive from.
type maskEnv struct {
	pkg  *Package
	objs map[types.Object]uint64
	// src assigns label bits to source expressions directly (beyond plain
	// identifier lookups); nil when only seed objects carry labels.
	src func(ast.Expr) uint64
}

// exprMask computes the labels an expression's value may carry. Derivation
// follows aliasing: indexing, slicing, field selection, dereference,
// address-of, parenthesization, and the aliasing arguments of append.
// Calls produce fresh values (mask 0) unless the src hook claims them, and
// pointer-free values never carry labels. Function literals carry the
// labels of everything they capture.
func (m *maskEnv) exprMask(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	var mask uint64
	if m.src != nil {
		mask |= m.src(e)
	}
	switch x := e.(type) {
	case *ast.Ident:
		mask |= m.objs[m.pkg.Info.ObjectOf(x)]
	case *ast.ParenExpr:
		mask |= m.exprMask(x.X)
	case *ast.StarExpr:
		mask |= m.exprMask(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			mask |= m.exprMask(x.X)
		}
	case *ast.IndexExpr:
		mask |= m.exprMask(x.X)
	case *ast.SliceExpr:
		mask |= m.exprMask(x.X)
	case *ast.SelectorExpr:
		// A field of a derived struct is derived; a qualified identifier or
		// method value is not.
		if sel := m.pkg.Info.Selections[x]; sel == nil || sel.Kind() == types.FieldVal {
			mask |= m.exprMask(x.X)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			mask |= m.exprMask(el)
		}
	case *ast.CallExpr:
		mask |= m.appendMask(x)
	case *ast.FuncLit:
		mask |= m.captureMask(x)
	case *ast.TypeAssertExpr:
		mask |= m.exprMask(x.X)
	}
	if mask != 0 && !hasRefs(m.pkg.Info.TypeOf(e)) {
		return 0 // value copies of pointer-free data drop the labels
	}
	return mask
}

// appendMask handles the one builtin whose result aliases its arguments:
// append shares arg 0's backing array and, for single-element forms, the
// appended reference values themselves. A spread (`append(a, b...)`) copies
// b's elements, which aliases only when the elements are reference-like.
func (m *maskEnv) appendMask(call *ast.CallExpr) uint64 {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return 0
	}
	if b, ok := m.pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return 0
	}
	var mask uint64
	for i, arg := range call.Args {
		if i > 0 && call.Ellipsis != token.NoPos && i == len(call.Args)-1 {
			// Spread: element values are copied out of arg's backing array.
			if t, ok := m.pkg.Info.TypeOf(arg).Underlying().(*types.Slice); ok && !hasRefs(t.Elem()) {
				continue
			}
		}
		mask |= m.exprMask(arg)
	}
	return mask
}

// captureMask is the union of labels over every outer-scope object a
// function literal references: a closure over a derived value carries the
// value wherever the closure goes.
func (m *maskEnv) captureMask(fl *ast.FuncLit) uint64 {
	var mask uint64
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			mask |= m.objs[m.pkg.Info.ObjectOf(id)]
		}
		return true
	})
	return mask
}

// solve closes the environment over the body's assignments: an object
// assigned a labelled expression carries the label from then on
// (flow-insensitively), including through := declarations, multi-value
// assignments from a labelled call and range statements over labelled
// collections.
func (m *maskEnv) solve(body ast.Node) {
	add := func(id *ast.Ident, mask uint64) bool {
		if mask == 0 || id == nil {
			return false
		}
		obj := m.pkg.Info.ObjectOf(id)
		if obj == nil || m.objs[obj]&mask == mask {
			return false
		}
		m.objs[obj] |= mask
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if add(id, m.exprMask(st.Rhs[i])) {
								changed = true
							}
						}
					}
				} else if len(st.Rhs) == 1 {
					// a, b := f(): every result that can alias carries the
					// call's labels.
					mask := m.exprMask(st.Rhs[0])
					for _, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && hasRefs(m.pkg.Info.TypeOf(id)) && add(id, mask) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a labelled slice/map of reference elements
				// hands out labelled values.
				mask := m.exprMask(st.X)
				if id, ok := st.Value.(*ast.Ident); ok && mask != 0 {
					if add(id, mask) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// peelTarget decomposes an assignment target into the named types of every
// struct whose field the store writes through, and the root expression the
// chain hangs off. `sh.segs[i] = v` peels to ([shardType], sh).
func peelTarget(pkg *Package, e ast.Expr) (owners []*types.Named, root ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := pkg.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				if n := namedOf(pkg.Info.TypeOf(x.X)); n != nil {
					owners = append(owners, n)
				}
			}
			e = x.X
		default:
			return owners, e
		}
	}
}

// escape is one store that moves a labelled value into memory outliving
// the enclosing call.
type escape struct {
	pos      token.Pos
	mask     uint64 // labels carried by the stored value
	rootMask uint64 // labels carried by the target's root (self-stores)
	desc     string
}

// scanEscapes reports every store in body that moves a labelled value into
// long-lived memory: package-level variables, struct fields reachable from
// the function's parameters (caller-owned memory), channel sends, and go
// statements. Stores into fields of types annotated //geslint:snapshot-owner
// are sanctioned and skipped; stores into purely local structures are
// invisible to callers and skipped (a deliberate false-negative: locals
// that escape via return are not tracked).
func (a *Analysis) scanEscapes(pkg *Package, body ast.Node, env *maskEnv) []escape {
	var out []escape
	outlives := func(root ast.Expr) (bool, uint64) {
		id, ok := root.(*ast.Ident)
		if !ok {
			return false, 0
		}
		obj := pkg.Info.ObjectOf(id)
		if obj == nil {
			return false, 0
		}
		if v, isVar := obj.(*types.Var); isVar && v.Parent() == pkg.Types.Scope() {
			return true, 0 // package-level variable
		}
		if m := env.objs[obj]; m != 0 {
			return true, m // parameter-derived: caller-owned memory
		}
		return false, 0
	}
	sanctioned := func(owners []*types.Named) bool {
		for _, n := range owners {
			if _, ok := a.owners[n.Obj()]; ok {
				return true
			}
		}
		return false
	}
	store := func(lhs, rhs ast.Expr, desc string) {
		mask := env.exprMask(rhs)
		if mask == 0 {
			return
		}
		owners, root := peelTarget(pkg, lhs)
		ok, rootMask := outlives(root)
		if !ok || sanctioned(owners) {
			return
		}
		out = append(out, escape{pos: rhs.Pos(), mask: mask, rootMask: rootMask, desc: desc})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					desc := "stored into caller-visible memory"
					if _, root := peelTarget(pkg, lhs); root != nil {
						if id, ok := root.(*ast.Ident); ok {
							if v, isVar := pkg.Info.ObjectOf(id).(*types.Var); isVar && v.Parent() == pkg.Types.Scope() {
								desc = "stored into package-level variable " + id.Name
							}
						}
					}
					store(lhs, st.Rhs[i], desc)
				}
			}
		case *ast.SendStmt:
			if mask := env.exprMask(st.Value); mask != 0 {
				out = append(out, escape{pos: st.Value.Pos(), mask: mask, desc: "sent on a channel"})
			}
		case *ast.GoStmt:
			var mask uint64
			if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
				mask |= env.captureMask(fl)
			}
			for _, arg := range st.Call.Args {
				mask |= env.exprMask(arg)
			}
			if mask != 0 {
				out = append(out, escape{pos: st.Pos(), mask: mask, desc: "handed to a goroutine"})
			}
		}
		return true
	})
	return out
}
