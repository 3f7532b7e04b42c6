package op

import (
	"slices"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/vector"
)

// This file implements the operator fusions of §4.3 (Operator Fusion):
//
//   - SeekExpand (the paper's VertexExpand fusion): NodeByIdSeek + Expand in
//     one step — the neighbor set of the start vertex becomes the f-Tree
//     root directly.
//   - AggregateProjectTop: Aggregation + Projection + Top-K fused so the
//     aggregate folds the f-Tree (a weighted pass over one chain's rows, or
//     the tuples' row indices) and the ordering kernel's bounded heap cuts
//     the groups — the full flat relation is never materialized.
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
func (o *SeekExpand) Execute(ctx *Ctx, in *core.FTree) (*core.FTree, error) {
	col := ctx.Arena.OwnColumn(o.To, vector.KindVID)
	if src, ok := ctx.View.VertexByExt(o.Label, o.ExtID); ok {
		b := ctx.Arena.GetBatch()
		srcs := append(ctx.Arena.GetVIDs(1), src)
		ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, false, b)
		ctx.Arena.PutVIDs(srcs)
		for _, pc := range b.Pieces {
			col.AppendVIDs(b.PieceVIDs(pc))
		}
		ctx.Arena.PutBatch(b)
	}
	return ctx.NewFTree(col), nil
}

// AggregateProjectTop is the paper's flagship fusion: Aggregate → Project →
// Top-K collapsed into one operator. It is the aggregation kernel
// (Aggregate.group, aggregate.go) — one fold over typed columns, a weighted
// pass over one f-Tree chain or over the tuples' row indices, never a
// materialized relation — feeding the ordering kernel (tupleOrder) over the
// group table's slots, whose comparators read the table's typed state (a
// key or a MIN or MAX compares its column at the groups' rows). Only the
// kept groups are gathered into a one-node tree, so peak memory is the group
// table plus the kept ids: compare Table 2's IC5 collapse from hundreds of
// megabytes to under 2 KB. When the sort keys include every group-by column
// no two groups tie, so plan.Fuse marks the aggregate Unordered and the
// groups are offered in slot order, without the sort by group key that
// would break ties.
type AggregateProjectTop struct {
	Aggregate
	Keys  []SortKey
	Limit int
}

// Name implements Operator.
func (o *AggregateProjectTop) Name() string {
	return "AggregateProjectTop(fused" + o.leafNames(", ", "") + ")"
}

// Execute implements Operator.
func (o *AggregateProjectTop) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	t, err := o.group(ctx, ft)
	if err != nil {
		return nil, err
	}
	defer t.release()
	// The ordering kernel's tuples are group slots, offered in the order the
	// table emits them; the keys compare the groups' output values.
	names := slices.Clone(o.GroupBy)
	for _, a := range o.Aggs {
		names = append(names, a.As)
	}
	keys := make([]orderKey, len(o.Keys))
	for i, k := range o.Keys {
		c := slices.Index(names, k.Col)
		if c < 0 {
			return nil, errNoColumn("order-by", k.Col)
		}
		keys[i] = orderKey{desc: k.Desc, cmp: t.comparator(c)}
	}
	ord := newTupleOrder(ctx, 1, o.Limit, keys)
	defer ord.release()
	for _, s := range t.slots(ctx) {
		ord.next()[0] = s
		ord.offer()
	}
	kept := ord.sorted()
	slots := make([]int32, len(kept))
	for i, id := range kept {
		slots[i] = ord.tuple(id)[0]
	}
	return ctx.Arena.OwnFTree(t.block(ctx, slots)), nil
}
