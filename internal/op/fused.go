package op

import (
	"ges/internal/catalog"
	"ges/internal/core"
)

// This file implements the operator fusions of §4.3 (Operator Fusion):
//
//   - SeekExpand (the paper's VertexExpand fusion): NodeByIdSeek + Expand in
//     one step — the neighbor set of the start vertex becomes the f-Tree
//     root directly.
//   - AggregateProjectTop: Aggregation + Projection + Top-K fused so the
//     aggregate consumes the constant-delay enumeration (or a weighted
//     single-node factorized pass) and the ordering kernel's bounded heap
//     cuts the groups — the full flat relation is never materialized.
//
// FilterPushDown fusion lives on Expand itself (Expand.VertexPred).

// SeekExpand fuses NodeByIdSeek with the first Expand: it resolves the start
// vertex and immediately produces its neighbor set as the root f-Block,
// skipping the single-row intermediate node.
type SeekExpand struct {
	Label catalog.LabelID
	ExtID int64

	To       string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	DstLabel catalog.LabelID
}

// Name implements Operator.
func (o *SeekExpand) Name() string { return "SeekExpand(fused)" }

// Execute implements Operator.
func (o *SeekExpand) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	col := ctx.Arena.OwnLazyVIDColumn(o.To)
	if src, ok := ctx.View.VertexByExt(o.Label, o.ExtID); ok {
		// The lazy column retains the batch's pieces, so the batch is
		// query-lifetime (Own scope), not morsel scratch.
		b := ctx.Arena.OwnBatch()
		srcs := append(ctx.Arena.GetVIDs(1), src)
		ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, false, b)
		ctx.Arena.PutVIDs(srcs)
		for _, pc := range b.Pieces {
			col.AppendSegment(b.PieceVIDs(pc))
		}
	}
	return ctx.FTChunk(ctx.NewFTree(col)), nil
}

// AggregateProjectTop is the paper's flagship fusion: Aggregate → Project →
// Top-K collapsed into one operator. It is the aggregation kernel (aggregate,
// aggregate.go) — a weighted pass over one f-Tree node or the enumeration
// streamed into the group table, never a materialized relation — feeding the
// ordering kernel (tupleOrder) over the group table's row indices, so peak
// memory is the group table plus the kept ids: compare Table 2's IC5
// collapse from hundreds of megabytes to under 2 KB.
type AggregateProjectTop struct {
	GroupBy []string
	Aggs    []AggSpec
	Keys    []SortKey
	Limit   int
}

// Name implements Operator.
func (o *AggregateProjectTop) Name() string { return "AggregateProjectTop(fused)" }

// Execute implements Operator.
func (o *AggregateProjectTop) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	grouped, err := aggregate(in, o.GroupBy, o.Aggs)
	if err != nil {
		return nil, err
	}
	out, err := orderFlat(ctx, grouped, o.Keys, o.Limit, nil)
	if err != nil {
		return nil, err
	}
	return ctx.FlatChunk(out), nil
}
