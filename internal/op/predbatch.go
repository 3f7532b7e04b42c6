package op

import (
	"math"

	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Batch evaluation of fused vertex predicates (§5): instead of one property
// read per (candidate, referenced column), the predicate gathers each
// referenced column once per neighbor segment and evaluates the conjuncts as
// tight kernels over the raw slices. Integer range conjuncts additionally
// consult the storage zone maps to drop whole 2048-row zones before any value
// moves, and dictionary-encoded string equality compares 4-byte codes. The
// per-row Test path remains the semantic reference; batch results are
// byte-identical.

// batchVertexPred is the optional batch face of VertexPred. TestBatch
// evaluates the predicate for all vids at once and returns a keep mask owned
// by the predicate (valid until the next call), or nil when the batch path is
// unavailable — callers then fall back to per-row Test.
type batchVertexPred interface {
	TestBatch(ctx *Ctx, vids []vector.VID) []bool
}

// batchPredMinRows is the candidate count below which per-row Test beats the
// batch setup cost. The unit is one neighbor run, on purpose: a scratch
// prototype that evaluated the predicate once per morsel (all runs of a
// NeighborsBatch together) was 5–8 % slower on the benchmark's ldbc_mix —
// its runs hold 1–5 candidates, and gather + overlay patch + mask conversion
// over the lot cost more than a Test that short-circuits on the first
// failing conjunct.
const batchPredMinRows = 16

// testVertexBatch routes a candidate segment through the predicate's batch
// path when it has one; nil means "evaluate per row".
func testVertexBatch(ctx *Ctx, pred VertexPred, vids []vector.VID) []bool {
	if pred == nil {
		return nil
	}
	if bp, ok := pred.(batchVertexPred); ok {
		return bp.TestBatch(ctx, vids)
	}
	return nil
}

// conjKind classifies one top-level AND conjunct of a predicate.
type conjKind uint8

const (
	// conjFallback evaluates through the compiled expression closure bound
	// to the scratch block — correct for every expression shape.
	conjFallback conjKind = iota
	// conjIntCmp is column <op> integer/date literal: a range kernel over the
	// raw int64 slice, zone-prunable for everything but NE.
	conjIntCmp
	// conjStrEq is column =/<> string literal over a dict-encoded column:
	// one dictionary lookup, then a uint32 code-compare kernel.
	conjStrEq
	// conjStrIn is column IN (string literals) over a dict-encoded column.
	conjStrIn
)

// conjunct is one classified AND conjunct.
type conjunct struct {
	kind conjKind
	col  string
	op   expr.CmpOp

	threshold int64
	lo, hi    int64 // satisfying value range (conjIntCmp with prune)
	prune     bool
	never     bool // statically unsatisfiable (threshold at the int64 edge)

	litStr string
	list   []string

	eval expr.Getter // conjFallback
}

// predBatch is the per-instance batch plan: scratch columns keep stable
// pointers so compiled fallback getters stay valid across batches (Grow
// resizes in place).
type predBatch struct {
	cols    map[string]*vector.Column
	order   []string
	getters map[string]*propGetter // nil entry = ExtIDProp
	block   *core.FBlock
	conjs   []conjunct
	sel     vector.Bitset
	keep    []bool
}

// splitAnd flattens the top-level conjunction.
func splitAnd(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(expr.And); ok {
		return append(splitAnd(a.L, dst), splitAnd(a.R, nil)...)
	}
	return append(dst, e)
}

// cmpRange derives the satisfying value range of col <op> t for zone pruning.
func cmpRange(op expr.CmpOp, t int64) (lo, hi int64, prune, never bool) {
	switch op {
	case expr.EQ:
		return t, t, true, false
	case expr.LT:
		if t == math.MinInt64 {
			return 0, 0, false, true
		}
		return math.MinInt64, t - 1, true, false
	case expr.LE:
		return math.MinInt64, t, true, false
	case expr.GT:
		if t == math.MaxInt64 {
			return 0, 0, false, true
		}
		return t + 1, math.MaxInt64, true, false
	case expr.GE:
		return t, math.MaxInt64, true, false
	default: // NE is the complement of a point — not a contiguous range.
		return 0, 0, false, false
	}
}

// buildBatch compiles the batch plan once per predicate instance; nil when
// any referenced name cannot be resolved (the scalar Test path then reports
// the same binding failure).
func (p *propPred) buildBatch(ctx *Ctx) *predBatch {
	b := &predBatch{
		cols:    make(map[string]*vector.Column),
		getters: make(map[string]*propGetter),
	}
	for _, name := range p.pred.Columns(nil) {
		if _, ok := b.cols[name]; ok {
			continue
		}
		var col *vector.Column
		if name == ExtIDProp {
			col = vector.NewColumn(name, vector.KindInt64)
			b.getters[name] = nil
		} else {
			g, err := newPropGetter(ctx.View, name)
			if err != nil {
				return nil
			}
			b.getters[name] = g
			col = g.newGatherOutput(ctx, name, g.labels, false)
		}
		b.cols[name] = col
		b.order = append(b.order, name)
	}
	scratch := make([]*vector.Column, 0, len(b.order))
	for _, n := range b.order {
		scratch = append(scratch, b.cols[n])
	}
	b.block = core.NewFBlock(scratch...)
	for _, c := range splitAnd(p.pred, nil) {
		cj, ok := b.classify(c)
		if !ok {
			return nil
		}
		b.conjs = append(b.conjs, cj)
	}
	return b
}

// classify maps one conjunct to its kernel, defaulting to the compiled
// closure.
func (b *predBatch) classify(e expr.Expr) (conjunct, bool) {
	switch n := e.(type) {
	case expr.Cmp:
		colRef, okL := n.L.(expr.Col)
		lit, okR := n.R.(expr.Lit)
		op := n.Op
		if !okL || !okR {
			lit, okL = n.L.(expr.Lit)
			colRef, okR = n.R.(expr.Col)
			if !okL || !okR {
				return b.fallback(e)
			}
			op = mirror(op)
		}
		col := b.cols[colRef.Name]
		intLit := lit.Val.Kind == vector.KindInt64 || lit.Val.Kind == vector.KindDate
		switch {
		case (col.Kind == vector.KindInt64 || col.Kind == vector.KindDate) && intLit:
			cj := conjunct{kind: conjIntCmp, col: colRef.Name, op: op, threshold: lit.Val.I}
			cj.lo, cj.hi, cj.prune, cj.never = cmpRange(op, lit.Val.I)
			return cj, true
		case col.Kind == vector.KindString && col.DictEncoded() &&
			lit.Val.Kind == vector.KindString && (op == expr.EQ || op == expr.NE):
			return conjunct{kind: conjStrEq, col: colRef.Name, op: op, litStr: lit.Val.S}, true
		}
		return b.fallback(e)
	case expr.In:
		if colRef, ok := n.X.(expr.Col); ok {
			col := b.cols[colRef.Name]
			if col.Kind == vector.KindString && col.DictEncoded() {
				list := make([]string, 0, len(n.List))
				allStr := true
				for _, v := range n.List {
					if v.Kind != vector.KindString {
						allStr = false
						break
					}
					list = append(list, v.S)
				}
				if allStr {
					return conjunct{kind: conjStrIn, col: colRef.Name, list: list}, true
				}
			}
		}
		return b.fallback(e)
	default:
		return b.fallback(e)
	}
}

func (b *predBatch) fallback(e expr.Expr) (conjunct, bool) {
	get, err := expr.BindBlock(e, b.block)
	if err != nil {
		return conjunct{}, false
	}
	return conjunct{kind: conjFallback, eval: get}, true
}

// TestBatch implements batchVertexPred on the fused property predicate.
func (p *propPred) TestBatch(ctx *Ctx, vids []vector.VID) []bool {
	if len(vids) < batchPredMinRows {
		return nil
	}
	if !p.batchInit {
		p.batchInit = true
		p.batch = p.buildBatch(ctx)
	}
	b := p.batch
	if b == nil {
		return nil
	}
	n := len(vids)
	b.sel.Resize(n, false)
	b.sel.SetAll()

	// Zone pruning first: every prunable range conjunct is ANDed at the top
	// level, so a candidate in a zone that cannot contain a satisfying value
	// is rejected before a single value is gathered.
	if zp, ok := ctx.View.(storage.ZonePruner); ok {
		for i := range b.conjs {
			c := &b.conjs[i]
			if c.kind != conjIntCmp || !c.prune {
				continue
			}
			g := b.getters[c.col]
			if g == nil {
				// External IDs carry no zone maps.
				continue
			}
			for _, lp := range g.labels {
				pruned, total := zp.PruneZones(vids, lp.label, lp.pid, c.lo, c.hi, &b.sel)
				ctx.Gather.ZonesPruned.Add(int64(pruned))
				ctx.Gather.ZonesTotal.Add(int64(total))
			}
		}
	}

	// Gather every referenced column for the surviving candidates.
	for _, name := range b.order {
		col := b.cols[name]
		col.Grow(n)
		if g := b.getters[name]; g != nil {
			for _, lp := range g.labels {
				ctx.View.GatherProps(vids, lp.label, lp.pid, &b.sel, col)
			}
		} else {
			ctx.View.GatherExtIDs(vids, &b.sel, col.Int64s())
		}
	}
	ctx.Gather.Gathers.Add(1)

	// Conjunct kernels over the surviving selection.
	for i := range b.conjs {
		c := &b.conjs[i]
		switch c.kind {
		case conjIntCmp:
			if c.never {
				b.sel.ClearRange(0, n)
				continue
			}
			applyIntCmpSel(&b.sel, b.cols[c.col].Int64s(), c.op, c.threshold, n)
		case conjStrEq:
			col := b.cols[c.col]
			code, ok := col.Dict().Lookup(c.litStr)
			codes := col.Codes()
			switch {
			case c.op == expr.EQ && !ok:
				// The literal was never interned, so no stored value equals it.
				b.sel.ClearRange(0, n)
			case c.op == expr.EQ:
				for i := 0; i < n; i++ {
					if codes[i] != code && b.sel.Get(i) {
						b.sel.Clear(i)
					}
				}
			case !ok:
				// NE against a never-seen literal holds everywhere.
			default:
				for i := 0; i < n; i++ {
					if codes[i] == code && b.sel.Get(i) {
						b.sel.Clear(i)
					}
				}
			}
		case conjStrIn:
			col := b.cols[c.col]
			want := make([]uint32, 0, len(c.list))
			for _, s := range c.list {
				if code, ok := col.Dict().Lookup(s); ok {
					want = append(want, code)
				}
			}
			codes := col.Codes()
			for i := 0; i < n; i++ {
				if !b.sel.Get(i) {
					continue
				}
				hit := false
				for _, w := range want {
					if codes[i] == w {
						hit = true
						break
					}
				}
				if !hit {
					b.sel.Clear(i)
				}
			}
		default:
			for i := 0; i < n; i++ {
				if b.sel.Get(i) && !c.eval(i).AsBool() {
					b.sel.Clear(i)
				}
			}
		}
	}

	if cap(b.keep) < n {
		b.keep = make([]bool, n)
	}
	keep := b.keep[:n]
	for i := range keep {
		keep[i] = b.sel.Get(i)
	}
	return keep
}

// applyIntCmpSel clears selection bits of rows failing vals[i] <op> t.
func applyIntCmpSel(sel *vector.Bitset, vals []int64, op expr.CmpOp, t int64, n int) {
	switch op {
	case expr.LT:
		for i := 0; i < n; i++ {
			if vals[i] >= t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	case expr.LE:
		for i := 0; i < n; i++ {
			if vals[i] > t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	case expr.GT:
		for i := 0; i < n; i++ {
			if vals[i] <= t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	case expr.GE:
		for i := 0; i < n; i++ {
			if vals[i] < t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	case expr.EQ:
		for i := 0; i < n; i++ {
			if vals[i] != t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	case expr.NE:
		for i := 0; i < n; i++ {
			if vals[i] == t && sel.Get(i) {
				sel.Clear(i)
			}
		}
	}
}
