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
func (o *NodeByIdSeek) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in != nil {
		return nil, fmt.Errorf("op: NodeByIdSeek must be a source operator")
	}
	col := ctx.Arena.OwnColumn(o.Var, vector.KindVID)
	if vid, ok := ctx.View.VertexByExt(o.Label, o.ExtID); ok {
		col.AppendVID(vid)
	}
	return ctx.FTChunk(ctx.NewFTree(col)), nil
}

// NodeScan starts a plan from every vertex of a label.
type NodeScan struct {
	Var   string
	Label catalog.LabelID
}

// Name implements Operator.
func (o *NodeScan) Name() string { return "NodeScan" }

// Execute implements Operator.
func (o *NodeScan) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in != nil {
		return nil, fmt.Errorf("op: NodeScan must be a source operator")
	}
	// Expose the scan order zero-copy; filters narrow the selection vector
	// instead of rewriting the column.
	col := vector.ShareVIDs(o.Var, ctx.View.ScanLabel(o.Label))
	return ctx.FTChunk(ctx.NewFTree(col)), nil
}

// MultiSeek starts a plan from an explicit list of external identifiers
// (used by short-read and update lookups that address several vertices).
type MultiSeek struct {
	Var    string
	Label  catalog.LabelID
	ExtIDs []int64
}

// Name implements Operator.
func (o *MultiSeek) Name() string { return "MultiSeek" }

// Execute implements Operator.
func (o *MultiSeek) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in != nil {
		return nil, fmt.Errorf("op: MultiSeek must be a source operator")
	}
	col := ctx.Arena.OwnColumn(o.Var, vector.KindVID)
	for _, ext := range o.ExtIDs {
		if vid, ok := ctx.View.VertexByExt(o.Label, ext); ok {
			col.AppendVID(vid)
		}
	}
	return ctx.FTChunk(ctx.NewFTree(col)), nil
}
