package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/vector"
)

// NodeByIdSeek locates a single vertex by external identifier and starts a
// fresh f-Tree whose root holds it — the first operator of every interactive
// query (§4.3, Figure 8(b)(i)).
type NodeByIdSeek struct {
	Var   string
	Label catalog.LabelID
	ExtID int64
	// ExtParam, when positive, names the parameter slot (1-based: slot k
	// reads params[k-1]) that supplies the external id. Cached plan
	// skeletons carry the slot; plan.BindParams copies the operator with
	// ExtID filled in before execution, so Execute only ever sees ExtID.
	ExtParam int
}

// Name implements Operator.
func (o *NodeByIdSeek) Name() string { return "NodeByIdSeek" }

// Execute implements Operator.
func (o *NodeByIdSeek) Execute(ctx *Ctx, in *core.FTree) (*core.FTree, error) {
	if in != nil {
		return nil, fmt.Errorf("op: NodeByIdSeek must be a source operator")
	}
	col := ctx.Arena.OwnColumn(o.Var, vector.KindVID)
	if vid, ok := ctx.View.VertexByExt(o.Label, o.ExtID); ok {
		col.AppendVID(vid)
	}
	return ctx.NewFTree(col), nil
}

// NodeScan starts a plan from every vertex of a label. With From set it is
// not a source: every valid row of From's node extends to every vertex of
// the label, as one new child node — the f-Tree's cartesian product — so a
// plan anchored at a seek can bind a dimension vertex (a country, a tag),
// filter it by name, and expand from it (IC3, IC6, IC11).
type NodeScan struct {
	Var   string
	Label catalog.LabelID
	From  string
}

// Name implements Operator.
func (o *NodeScan) Name() string { return "NodeScan" }

// Execute implements Operator.
func (o *NodeScan) Execute(ctx *Ctx, in *core.FTree) (*core.FTree, error) {
	if o.From != "" {
		if in == nil {
			return nil, fmt.Errorf("op: NodeScan from %q needs an input", o.From)
		}
		return o.extend(ctx, in)
	}
	if in != nil {
		return nil, fmt.Errorf("op: NodeScan must be a source operator")
	}
	// Expose the scan order zero-copy; filters narrow the selection vector
	// instead of rewriting the column.
	col := vector.ShareVIDs(o.Var, ctx.View.ScanLabel(o.Label))
	return ctx.NewFTree(col), nil
}

// extend adds the scan under From. Under a one-row parent the child is the
// shared scan, as a source NodeScan's root is, so a projection gathers it
// zero-copy; under several parent rows each valid row gets its own copy of
// the scan.
func (o *NodeScan) extend(ctx *Ctx, in *core.FTree) (*core.FTree, error) {
	scan := ctx.View.ScanLabel(o.Label)
	parent, _, err := vidColumn(in, o.From)
	if err != nil {
		return nil, err
	}
	n := parent.Block.NumRows()
	index := ctx.Arena.OwnRanges(n)
	var col *vector.Column
	if n == 1 && parent.Valid(0) {
		col = vector.ShareVIDs(o.Var, scan)
		index[0] = core.Range{End: int32(len(scan))}
	} else {
		col = ctx.Arena.OwnColumn(o.Var, vector.KindVID)
		for i := range index {
			start := col.Len()
			if parent.Valid(i) {
				col.AppendVIDs(scan)
			}
			index[i] = core.Range{Start: int32(start), End: int32(col.Len())}
		}
	}
	in.AddChild(parent, ctx.NewFBlock(col), index)
	assertFTree(in)
	return in, nil
}
