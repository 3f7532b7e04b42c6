package op

import (
	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/vector"
)

// Filter evaluates a predicate. On the factorized path the disjoint schema
// partition property locates the single f-Tree node owning the predicate's
// attributes and the selection vector is updated in place — no data moves
// (§4.3, Filter). Predicates spanning several nodes force a de-factor.
type Filter struct {
	Pred expr.Expr
	// NoPrune disables upward selection-vector pruning (used by ablation
	// benchmarks; pruning is on by default).
	NoPrune bool
}

// Name implements Operator.
func (o *Filter) Name() string { return "Filter" }

// Execute implements Operator.
func (o *Filter) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if !in.IsFlat() {
		cols := o.Pred.Columns(nil)
		if node := in.FT.NodeOfColumns(cols); node != nil {
			if !vectorizedFilter(ctx, node, o.Pred) {
				get, err := expr.BindBlock(o.Pred, node.Block)
				if err != nil {
					return nil, err
				}
				applySelFilter(ctx, node, get)
			}
			if !o.NoPrune {
				in.FT.PruneUp(node)
			}
			assertFTree(in.FT)
			return in, nil
		}
		fb, err := ensureFlat(ctx, in)
		if err != nil {
			return nil, err
		}
		in = ctx.FlatChunk(fb)
	}
	get, err := expr.BindFlat(o.Pred, in.Flat)
	if err != nil {
		return nil, err
	}
	// BindFlat getters are pure, so one getter serves all morsels.
	out := produceFlat(ctx, len(in.Flat.Rows), filterMorselSize, in.Flat.Names, in.Flat.Kinds,
		flatFilterBody{get, in.Flat.Rows})
	return ctx.FlatChunk(out), nil
}

// flatFilterBody keeps the input rows of [lo,hi) that pass the predicate.
type flatFilterBody struct {
	get expr.Getter
	in  [][]vector.Value
}

func (b flatFilterBody) rows(lo, hi int, out *core.FlatBlock) {
	for i := lo; i < hi; i++ {
		if b.get(i).AsBool() {
			out.AppendOwned(b.in[i])
		}
	}
}

// applySelFilter clears the selection bit of every selected row failing the
// compiled predicate. Compiled getters read block state by row index only,
// so one getter serves all morsels; filterMorselSize is a multiple of 64, so
// concurrent morsels never write the same selection-vector word.
func applySelFilter(ctx *Ctx, node *core.Node, get expr.Getter) {
	forRanges(ctx, node.Block.NumRows(), filterMorselSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if node.Sel.Get(i) && !get(i).AsBool() {
				node.Sel.Clear(i)
			}
		}
	})
}

// Defactor explicitly converts a factorized chunk into a flat block holding
// the named columns (all columns when Cols is nil). Plans insert it ahead of
// blocking logic; it is a no-op on already-flat chunks unless Cols narrows
// the schema.
type Defactor struct {
	Cols []string
}

// Name implements Operator.
func (o *Defactor) Name() string { return "Defactor" }

// Execute implements Operator.
func (o *Defactor) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in.IsFlat() {
		if o.Cols == nil {
			return in, nil
		}
		fb, err := in.Flat.Project(o.Cols)
		if err != nil {
			return nil, err
		}
		return ctx.FlatChunk(fb), nil
	}
	fb, err := DefactorNames(ctx, in.FT, o.Cols)
	if err != nil {
		return nil, err
	}
	return ctx.FlatChunk(fb), nil
}

// vectorizedFilter is the §5 vectorization fast path: single-column
// comparisons against integer/date literals run as a tight loop over the
// contiguous column slice — the pattern modern compilers auto-vectorize —
// instead of through the compiled expression closure, over word-aligned row
// ranges (forRanges). It reports whether it handled the predicate.
func vectorizedFilter(ctx *Ctx, node *core.Node, pred expr.Expr) bool {
	cmp, ok := pred.(expr.Cmp)
	if !ok {
		return false
	}
	colRef, okL := cmp.L.(expr.Col)
	lit, okR := cmp.R.(expr.Lit)
	op := cmp.Op
	if !okL || !okR {
		// Try the mirrored form: literal <op> column.
		lit, okL = cmp.L.(expr.Lit)
		colRef, okR = cmp.R.(expr.Col)
		if !okL || !okR {
			return false
		}
		op = mirror(op)
	}
	col := node.Block.ColumnByName(colRef.Name)
	if col == nil || col.Lazy() {
		return false
	}
	if col.Kind == vector.KindString {
		return dictStringFilter(ctx, node, col, lit, op)
	}
	if col.Kind != vector.KindInt64 && col.Kind != vector.KindDate {
		return false
	}
	if lit.Val.Kind != vector.KindInt64 && lit.Val.Kind != vector.KindDate {
		return false
	}
	vals := col.Int64s()
	threshold := lit.Val.I
	sel := node.Sel
	var apply func(lo, hi int)
	switch op {
	case expr.LT:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v >= threshold {
					sel.Clear(lo + i)
				}
			}
		}
	case expr.LE:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v > threshold {
					sel.Clear(lo + i)
				}
			}
		}
	case expr.GT:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v <= threshold {
					sel.Clear(lo + i)
				}
			}
		}
	case expr.GE:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v < threshold {
					sel.Clear(lo + i)
				}
			}
		}
	case expr.EQ:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v != threshold {
					sel.Clear(lo + i)
				}
			}
		}
	case expr.NE:
		apply = func(lo, hi int) {
			for i, v := range vals[lo:hi] {
				if v == threshold {
					sel.Clear(lo + i)
				}
			}
		}
	default:
		return false
	}
	// Zone-map skipping (§5): columns shared from storage carry the per-zone
	// min/max summaries, so zones that cannot contain a match are dropped
	// with one word-ranged selection clear, and zones entirely inside the
	// range are not scanned at all. Ranges are whole zones (multiples of
	// 2048 rows), so concurrent ranges never share a selection word.
	if zm := col.ZoneMap(); zm != nil && zm.Rows() == len(vals) {
		if lo, hi, prunable, never := cmpRange(op, threshold); never {
			sel.ClearRange(0, len(vals))
			return true
		} else if prunable {
			ctx.Gather.ZonesTotal.Add(int64(zm.Zones()))
			scanZone := func(z int) {
				zlo := z << vector.ZoneShift
				zhi := zlo + vector.ZoneSize
				if zhi > len(vals) {
					zhi = len(vals)
				}
				switch {
				case !zm.OverlapsInt(z, lo, hi):
					sel.ClearRange(zlo, zhi)
					ctx.Gather.ZonesPruned.Add(1)
				case zm.ContainedInt(z, lo, hi):
					// Every row in the zone satisfies the predicate.
				default:
					apply(zlo, zhi)
				}
			}
			// Eight zones to a morsel.
			forRanges(ctx, len(vals), 8*vector.ZoneSize, func(lo, hi int) {
				for z := lo >> vector.ZoneShift; z<<vector.ZoneShift < hi; z++ {
					scanZone(z)
				}
			})
			return true
		}
	}
	forRanges(ctx, len(vals), filterMorselSize, apply)
	return true
}

// dictStringFilter runs string equality over a dictionary-encoded column as
// a uint32 code-compare kernel: one dictionary lookup replaces the per-row
// string comparison. Non-equality string operators fall back.
func dictStringFilter(ctx *Ctx, node *core.Node, col *vector.Column, lit expr.Lit, op expr.CmpOp) bool {
	if !col.DictEncoded() || lit.Val.Kind != vector.KindString {
		return false
	}
	if op != expr.EQ && op != expr.NE {
		return false
	}
	sel := node.Sel
	codes := col.Codes()
	code, ok := col.Dict().Lookup(lit.Val.S)
	if !ok {
		// The literal was never interned: EQ matches nothing, NE everything.
		if op == expr.EQ {
			sel.ClearRange(0, len(codes))
		}
		return true
	}
	var apply func(lo, hi int)
	if op == expr.EQ {
		apply = func(lo, hi int) {
			for i, c := range codes[lo:hi] {
				if c != code {
					sel.Clear(lo + i)
				}
			}
		}
	} else {
		apply = func(lo, hi int) {
			for i, c := range codes[lo:hi] {
				if c == code {
					sel.Clear(lo + i)
				}
			}
		}
	}
	forRanges(ctx, len(codes), filterMorselSize, apply)
	return true
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
