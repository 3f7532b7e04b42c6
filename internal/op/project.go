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
func (o *ProjectProps) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
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
	return ft, nil
}

// ProjectExpr appends one computed column to the f-Tree node owning the
// expression's attributes; an expression spanning several nodes (or none)
// de-factors the tree first and appends to its one node.
type ProjectExpr struct {
	Expr expr.Expr
	As   string
	Kind vector.Kind
}

// Name implements Operator.
func (o *ProjectExpr) Name() string { return "ProjectExpr" }

// Execute implements Operator.
func (o *ProjectExpr) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	node := ft.NodeOfColumns(o.Expr.Columns(nil))
	if node == nil {
		var err error
		if ft, err = defactor(ctx, ft, nil); err != nil {
			return nil, err
		}
		node = ft.Root
	}
	get, err := expr.BindBlock(o.Expr, node.Block)
	if err != nil {
		return nil, err
	}
	// The output column is query-lifetime arena memory sized up front.
	out := ctx.Arena.OwnColumn(o.As, o.Kind)
	n := node.Block.NumRows()
	out.Grow(n)
	for i := range n {
		out.Set(i, coerce(get(i), o.Kind))
	}
	node.Block.AddColumn(out)
	assertFTree(ft)
	return ft, nil
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
