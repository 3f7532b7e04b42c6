package op

import (
	"sort"

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
//     single-node factorized pass) and the top-k heap bounds the output —
//     the full flat relation is never materialized.
//
// FilterPushDown fusion lives on Expand itself (VertexPred / EdgePropPred).

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
		// The lazy column retains a view of the batch's VID run, so the
		// batch is query-lifetime (Own scope), not morsel scratch.
		b := ctx.Arena.OwnBatch()
		srcs := append(ctx.Arena.GetVIDs(1), src)
		ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, false, b)
		ctx.Arena.PutVIDs(srcs)
		if run := b.Run(0); len(run) > 0 {
			col.AppendSegment(run)
		}
	}
	return ctx.FTChunk(ctx.NewFTree(col)), nil
}

// AggregateProjectTop is the paper's flagship fusion: Aggregate → Project →
// Top-K collapsed into one operator. It is the aggregation kernel (aggregate,
// aggregate.go) — a weighted pass over one f-Tree node or the enumeration
// streamed into the group table, never a materialized relation — feeding a
// bounded top-k heap, so peak memory is the group table plus the heap:
// compare Table 2's IC5 collapse from hundreds of megabytes to under 2 KB.
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
	if len(o.Keys) == 0 {
		return ctx.FlatChunk(grouped), nil
	}
	keyIdx, err := keyIndices(grouped.Names, o.Keys)
	if err != nil {
		return nil, err
	}
	// The group table is this operator's own: it is ordered and cut in place.
	rows := grouped.Rows
	switch {
	case o.Limit == 1 && len(rows) > 0:
		// Degenerate top-k: a strict-less max scan replays exactly the
		// comparison sequence of a size-1 heap (first row seeds, later rows
		// replace only when strictly less), without the heap machinery.
		best := 0
		for i := 1; i < len(rows); i++ {
			if rowLess(rows[i], rows[best], keyIdx) {
				best = i
			}
		}
		grouped.Rows = rows[best : best+1]
	case o.Limit > 1:
		h := newTopK(o.Limit, keyIdx)
		for _, row := range rows {
			h.offer(row)
		}
		grouped.Rows = h.sorted()
	case o.Limit <= 0:
		sort.SliceStable(rows, func(a, b int) bool { return rowLess(rows[a], rows[b], keyIdx) })
	}
	return ctx.FlatChunk(grouped), nil
}
