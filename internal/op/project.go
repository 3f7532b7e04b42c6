package op

import (
	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/vector"
)

// ProjSpec projects one attribute of a bound vertex variable: either a
// vertex property or the vertex's external identifier (ExtID).
type ProjSpec struct {
	Var   string
	Prop  string // ignored when ExtID
	As    string
	ExtID bool
}

// ProjectProps fetches vertex properties (or external IDs) and appends them
// as new columns. Each column lands on the f-Tree node owning the variable —
// columnar storage makes this a straight append (§4.3, Projection).
type ProjectProps struct {
	Specs []ProjSpec
}

// Name implements Operator.
func (o *ProjectProps) Name() string { return "Project" }

// Execute implements Operator.
func (o *ProjectProps) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	in = ensureFTree(ctx, in)
	ft := in.FT
	for _, spec := range o.Specs {
		node, col, err := vidColumn(ft, spec.Var)
		if err != nil {
			return nil, err
		}
		// Batch gather (§5): the whole column is filled by bulk copies from
		// storage (or shared zero-copy when the VID column is the scan order).
		var out *vector.Column
		if spec.ExtID {
			out = gatherExtIDColumn(ctx, col, spec.As)
		} else {
			g, err := newPropGetter(ctx.View, spec.Prop)
			if err != nil {
				return nil, err
			}
			out = g.gatherColumn(ctx, col, spec.As)
		}
		node.Block.AddColumn(out)
	}
	assertFTree(ft)
	return in, nil
}

// ProjectExpr appends one computed column. On the factorized path the
// expression must be confined to a single f-Tree node; otherwise the chunk
// is de-factored first.
type ProjectExpr struct {
	Expr expr.Expr
	As   string
	Kind vector.Kind
}

// Name implements Operator.
func (o *ProjectExpr) Name() string { return "ProjectExpr" }

// Execute implements Operator.
func (o *ProjectExpr) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if !in.IsFlat() {
		cols := o.Expr.Columns(nil)
		if node := in.FT.NodeOfColumns(cols); node != nil {
			get, err := expr.BindBlock(o.Expr, node.Block)
			if err != nil {
				return nil, err
			}
			// The output column is query-lifetime arena memory sized up front;
			// compiled getters read block state by row index only, so ranges
			// fill disjoint slots of it with one getter.
			out := ctx.Arena.OwnColumn(o.As, o.Kind)
			out.Grow(node.Block.NumRows())
			forRanges(ctx, node.Block.NumRows(), filterMorselSize, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out.Set(i, coerce(get(i), o.Kind))
				}
			})
			node.Block.AddColumn(out)
			assertFTree(in.FT)
			return in, nil
		}
		fb, err := ensureFlat(ctx, in)
		if err != nil {
			return nil, err
		}
		in = ctx.FlatChunk(fb)
	}
	get, err := expr.BindFlat(o.Expr, in.Flat)
	if err != nil {
		return nil, err
	}
	out := core.NewFlatBlock(
		append(append([]string(nil), in.Flat.Names...), o.As),
		append(append([]vector.Kind(nil), in.Flat.Kinds...), o.Kind),
	)
	for i, row := range in.Flat.Rows {
		nr := make([]vector.Value, 0, len(row)+1)
		nr = append(nr, row...)
		nr = append(nr, coerce(get(i), o.Kind))
		out.AppendOwned(nr)
	}
	return ctx.FlatChunk(out), nil
}

func coerce(v vector.Value, k vector.Kind) vector.Value {
	if v.Kind == k {
		return v
	}
	switch k {
	case vector.KindFloat64:
		if v.Kind != vector.KindString {
			return vector.Float64(float64(v.I))
		}
	case vector.KindInt64, vector.KindDate, vector.KindBool:
		if v.Kind == vector.KindFloat64 {
			return vector.Value{Kind: k, I: int64(v.F)}
		}
		return vector.Value{Kind: k, I: v.I, S: v.S}
	}
	return v
}
