package op

import (
	"math"

	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/vector"
)

// Filter evaluates a predicate. The disjoint schema partition property
// locates the single f-Tree node owning the predicate's attributes and the
// selection vector is updated in place — no data moves (§4.3, Filter): the
// predicate's conjuncts compile against that node's block into the conjunct
// kernels below, the ones the fused VertexPred runs too. A predicate
// spanning several nodes (or none) de-factors the tree first and filters its
// one node.
type Filter struct {
	Pred expr.Expr
}

// Name implements Operator.
func (o *Filter) Name() string { return "Filter" }

// Execute implements Operator.
func (o *Filter) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	node := ft.NodeOfColumns(o.Pred.Columns(nil))
	if node == nil {
		var err error
		if ft, err = defactor(ctx, ft, nil); err != nil {
			return nil, err
		}
		node = ft.Root
	}
	conjs, err := compileConjuncts(o.Pred, node.Block, nil)
	if err != nil {
		return nil, err
	}
	filterRows(conjs, node.Sel, node.Block.NumRows())
	ft.PruneUp(node)
	assertFTree(ft)
	return ft, nil
}

// Defactor converts an f-Tree into a one-node tree holding the named
// columns (all columns when Cols is nil) of its tuples (defactor). Plans
// insert it ahead of blocking logic; a one-node tree with just those
// columns passes through.
type Defactor struct {
	Cols []string
}

// Name implements Operator.
func (o *Defactor) Name() string { return "Defactor" }

// Execute implements Operator.
func (o *Defactor) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	return defactor(ctx, ft, o.Cols)
}

// Distinct removes duplicate tuples over the named columns (all columns when
// nil). It needs cross-tuple state, so it de-factors to those columns and
// clears the selection bit of every row that repeats an earlier one.
type Distinct struct {
	Cols []string
}

// Name implements Operator.
func (o *Distinct) Name() string { return "Distinct" }

// Execute implements Operator.
func (o *Distinct) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	ft, err := defactor(ctx, ft, o.Cols)
	if err != nil {
		return nil, err
	}
	root, cols := ft.Root, ft.Root.Block.Columns()
	seen := make(map[string]struct{}, root.Sel.Count())
	var buf []byte
	for r := root.Sel.NextSet(0); r >= 0; r = root.Sel.NextSet(r + 1) {
		buf = buf[:0]
		for _, c := range cols {
			buf = appendKey(buf, c.Get(r))
		}
		if _, dup := seen[string(buf)]; dup {
			root.Sel.Clear(r)
			continue
		}
		seen[string(buf)] = struct{}{}
	}
	return ft, nil
}

// The conjunct kernels (§5, Vectorization). A predicate's top-level AND
// splits into conjuncts, and each compiles against the f-Block it reads — a
// node's block for Filter, the gathered scratch block for the fused
// VertexPred — into one of three kernels:
//
//   - an int/date range: column <op> int/date literal keeps the rows whose
//     value lies in [lo,hi] (cmpRange), or outside it for NE, testing 64
//     rows per selection word;
//   - a dictionary-code set: EQ, NE or IN against string literals over a
//     dictionary-encoded column compares 4-byte codes with the literals'
//     codes, looked up per run (a gather may intern overlay strings); a
//     literal never interned has no code and matches no row;
//   - the conjunct's compiled closure, for every other shape, and for a
//     column with nulls, which the closure reads through Get.
type kernel uint8

const (
	kernClosure kernel = iota
	kernRange
	kernCodes
)

// conjunct is one compiled conjunct.
type conjunct struct {
	kernel kernel
	col    *vector.Column // read by the range and code-set kernels
	negate bool           // keep the rows outside the range / code set

	lo, hi int64

	lit  vector.Value   // code set of EQ / NE
	lits []vector.Value // code set of IN

	eval expr.Getter // closure
}

// compileConjuncts appends the top-level conjuncts of e, compiled against
// b, to dst — the one classifier of Filter and the fused predicate.
func compileConjuncts(e expr.Expr, b *core.FBlock, dst []conjunct) ([]conjunct, error) {
	if and, ok := e.(expr.And); ok {
		dst, err := compileConjuncts(and.L, b, dst)
		if err != nil {
			return nil, err
		}
		return compileConjuncts(and.R, b, dst)
	}
	switch n := e.(type) {
	case expr.Cmp:
		name, lit, op, ok := colOpLit(n)
		col := b.ColumnByName(name)
		switch {
		case !ok || col == nil || col.HasNulls():
		case intOrDate(col.Kind) && intOrDate(lit.Kind):
			c := conjunct{kernel: kernRange, col: col}
			c.lo, c.hi, c.negate = cmpRange(op, lit.I)
			return append(dst, c), nil
		case col.DictEncoded() && lit.Kind == vector.KindString && (op == expr.EQ || op == expr.NE):
			return append(dst, conjunct{kernel: kernCodes, col: col, negate: op == expr.NE, lit: lit}), nil
		}
	case expr.In:
		if x, ok := n.X.(expr.Col); ok {
			if col := b.ColumnByName(x.Name); col != nil && col.DictEncoded() && !col.HasNulls() {
				// A non-string literal never equals a string value. An empty
				// list keeps lits nil, so the set is the zero lit's: empty.
				return append(dst, conjunct{kernel: kernCodes, col: col, lits: n.List}), nil
			}
		}
	}
	get, err := expr.BindBlock(e, b)
	if err != nil {
		return nil, err
	}
	return append(dst, conjunct{kernel: kernClosure, eval: get}), nil
}

// filterRows clears, over rows [0,n) of sel, every row some conjunct
// rejects. Conjuncts run in order, so a closure only evaluates rows the
// conjuncts before it kept.
func filterRows(conjs []conjunct, sel *vector.Bitset, n int) {
	for i := range conjs {
		conjs[i].run(sel, n)
	}
}

// run clears, over rows [0,n) of sel, the rows the conjunct rejects. The
// range and code-set kernels test 64 rows branch-free into a mask of the
// rows in the range or set and clear the rejected ones with one word store.
func (c *conjunct) run(sel *vector.Bitset, n int) {
	var negMask uint64
	if c.negate {
		negMask = ^negMask
	}
	switch c.kernel {
	case kernRange:
		// One unsigned compare tests first <= v <= first+span.
		vals, first, span := c.col.Int64s(), c.lo, uint64(c.hi-c.lo)
		for w := 0; w < n; w += 64 {
			var in uint64
			for i, v := range vals[w:min(w+64, n)] {
				in |= b2u(uint64(v-first) <= span) << i
			}
			clearRejected(sel, w, n, in, negMask)
		}
	case kernCodes:
		lits := c.lits
		if lits == nil {
			lits = []vector.Value{c.lit}
		}
		var buf [8]uint32
		want, d := buf[:0], c.col.Dict()
		for _, v := range lits {
			if code, ok := d.Lookup(v.S); ok && v.Kind == vector.KindString {
				want = append(want, code)
			}
		}
		codes := c.col.Codes()
		for w := 0; w < n; w += 64 {
			var in uint64
			chunk := codes[w:min(w+64, n)]
			for _, x := range want {
				for i, code := range chunk {
					in |= b2u(code == x) << i
				}
			}
			clearRejected(sel, w, n, in, negMask)
		}
	default:
		for i := range n {
			if sel.Get(i) && !c.eval(i).AsBool() {
				sel.Clear(i)
			}
		}
	}
}

// clearRejected clears the rejected rows of the selection word starting at
// row w: a row is kept when its in bit is set — clear, when negMask is all
// ones. Rows at or past hi are left alone.
func clearRejected(sel *vector.Bitset, w, hi int, in, negMask uint64) {
	reject := ^(in ^ negMask)
	if n := hi - w; n < 64 {
		reject &= 1<<n - 1
	}
	sel.ClearWord(w, reject)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// colOpLit matches column <op> literal in either operand order, mirroring
// op for the literal-first form.
func colOpLit(c expr.Cmp) (string, vector.Value, expr.CmpOp, bool) {
	if col, ok := c.L.(expr.Col); ok {
		if lit, ok := c.R.(expr.Lit); ok {
			return col.Name, lit.Val, c.Op, true
		}
	}
	if lit, ok := c.L.(expr.Lit); ok {
		if col, ok := c.R.(expr.Col); ok {
			return col.Name, lit.Val, mirror(c.Op), true
		}
	}
	return "", vector.Value{}, 0, false
}

func intOrDate(k vector.Kind) bool { return k == vector.KindInt64 || k == vector.KindDate }

// cmpRange is the range [lo,hi] of the values v with v <op> t, or its
// complement when negate is set (NE is not a contiguous range). LT MinInt64
// and GT MaxInt64 hold for no value: the complement of the full range.
func cmpRange(op expr.CmpOp, t int64) (lo, hi int64, negate bool) {
	switch op {
	case expr.NE:
		return t, t, true
	case expr.LT:
		if t == math.MinInt64 {
			return math.MinInt64, math.MaxInt64, true
		}
		return math.MinInt64, t - 1, false
	case expr.LE:
		return math.MinInt64, t, false
	case expr.GT:
		if t == math.MaxInt64 {
			return math.MinInt64, math.MaxInt64, true
		}
		return t + 1, math.MaxInt64, false
	case expr.GE:
		return t, math.MaxInt64, false
	default: // EQ
		return t, t, false
	}
}

// mirror flips a comparison for the literal-first form.
func mirror(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op
	}
}
