package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/vector"
)

// EdgeProj projects one edge property onto the expansion output.
type EdgeProj struct {
	Prop string // edge-property name in the edge type's schema
	As   string // output column name
}

// Expand is the paper's dominant operator (§3.1, §4.3): it extends the
// vertices bound to From along one edge type to their neighbors, bound to
// To.
//
// Each execution adds exactly one f-Tree node under From's node: neighbor
// IDs land in a new f-Block and the per-parent row ranges form the index
// vector of the new edge. The batch's pieces are read in place — a piece
// views the sealed image, §5's (pointer, length) — and copied into the
// f-Block's owned VID column: a whole piece per copy when neither edge
// properties nor a fused predicate are requested, otherwise each kept
// neighbor once, its edge properties read at the piece's offset.
//
// VertexPred implements the FilterPushDown (ExpandFilter) fusion, bound when
// the operator starts (a property no label defines fails it there): Filter's
// conjunct kernels decide a whole NeighborsBatch at once, rejected neighbors
// are never materialized, and a parent that kept none is pruned (PruneUp).
type Expand struct {
	From, To string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	DstLabel catalog.LabelID

	EdgeProps []EdgeProj

	// VertexPred filters candidate neighbors by their own vertex data.
	VertexPred *VertexPred

	// Newest keeps only the neighbours an OrderBy above can return (newest.go).
	Newest *Newest
}

// Name implements Operator.
func (o *Expand) Name() string {
	if o.Newest != nil {
		return fmt.Sprintf("Expand(merge newest %d)", o.Newest.K)
	}
	if o.VertexPred != nil {
		return "Expand(fused-filter)"
	}
	return "Expand"
}

// edgePropPlan resolves the requested edge properties against the catalog.
type edgePropPlan struct {
	idx  []int // position in the edge type's property schema
	kind []vector.Kind
}

func (o *Expand) resolveEdgeProps(cat *catalog.Catalog) (edgePropPlan, error) {
	var p edgePropPlan
	for _, ep := range o.EdgeProps {
		pid, kind, ok := cat.EdgePropIndex(o.Et, ep.Prop)
		if !ok {
			return p, fmt.Errorf("op: edge type %s has no property %q", cat.EdgeTypeName(o.Et), ep.Prop)
		}
		p.idx = append(p.idx, int(pid))
		p.kind = append(p.kind, kind)
	}
	return p, nil
}

// Execute implements Operator.
func (o *Expand) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	if o.Newest != nil {
		return o.newestFactorized(ctx, ft)
	}
	epp, err := o.resolveEdgeProps(ctx.View.Catalog())
	if err != nil {
		return nil, err
	}
	pred, err := o.VertexPred.filter(ctx, o.DstLabel)
	if err != nil {
		return nil, err
	}
	return o.executeFactorized(ctx, ft, epp, pred)
}

// runLens writes the neighbor count of every source — one NeighborsBatch
// run's length — to counts.
func (o *Expand) runLens(ctx *Ctx, srcs []vector.VID, counts []int64) {
	batch := ctx.Arena.GetBatch()
	ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, false, batch)
	for i := range batch.Runs {
		counts[i] = int64(batch.RunLen(i))
	}
	ctx.Arena.PutBatch(batch)
}

func (o *Expand) executeFactorized(ctx *Ctx, ft *core.FTree, epp edgePropPlan, pred *vertexFilter) (*core.FTree, error) {
	parent, fromCol, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	out := produceChild(ctx, ft, parent, childCols{to: o.To, props: o.EdgeProps, kinds: epp.kind},
		expandBody{o, ctx, parent, fromCol, epp, pred}.rows)
	if pred != nil {
		ft.PruneUp(ft.Nodes()[ft.NumNodes()-1])
	}
	return out, nil
}

// expandSrcs builds a batched neighbor request for every parent row into
// buf (typically pooled VID scratch; the caller releases it after the batch
// call returns): the From VID per valid row, NilVID (an empty run) for
// invalid rows, so the returned runs stay aligned with the rows.
func expandSrcs(parent *core.Node, fromCol *vector.Column, buf []vector.VID) []vector.VID {
	srcs := buf[:0] // kept as its own statement: geslint R11 follows the pooled buffer through this alias
	srcs = fromCol.AppendVIDRange(srcs, 0, parent.Block.NumRows())
	for i := range srcs {
		if !parent.Valid(i) {
			srcs[i] = vector.NilVID
		}
	}
	return srcs
}

// expandBody is the factorized expand's fill.
type expandBody struct {
	o       *Expand
	ctx     *Ctx
	parent  *core.Node
	fromCol *vector.Column
	epp     edgePropPlan
	pred    *vertexFilter
}

// rows expands every parent row. Candidates come from one batched
// NeighborsBatch call, read piece by piece in place; a piece with nothing to
// filter or project beside its VIDs is copied whole.
func (b expandBody) rows(s childSink) {
	o, ctx, epp, pred := b.o, b.ctx, b.epp, b.pred
	total := 0

	// Every value is copied out of the batch before this call returns, so
	// the batch is transient scratch.
	batch := ctx.Arena.GetBatch()
	defer ctx.Arena.PutBatch(batch)
	srcs := expandSrcs(b.parent, b.fromCol, ctx.Arena.GetVIDs(len(s.index)))
	ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, len(o.EdgeProps) > 0, batch)
	ctx.Arena.PutVIDs(srcs)
	// keep numbers all pieces' candidates in piece order, piece pc's from base.
	keep, base := pred.keep(ctx, batch), 0
	for ri, r := range batch.Runs {
		start := total
		for _, pc := range batch.Pieces[r.Start:r.End] {
			vids := batch.PieceVIDs(pc)
			if keep == nil && len(s.propCols) == 0 {
				s.toCol.AppendVIDs(vids)
				total += len(vids)
				continue
			}
			cols, off := batch.PieceCols(pc)
			for k, v := range vids {
				if keep != nil && !keep.Get(base+k) {
					continue
				}
				s.toCol.AppendVID(v)
				for p, c := range s.propCols {
					c.Append(cols.Value(epp.idx[p], epp.kind[p], off+k))
				}
				total++
			}
			base += pc.Len()
		}
		s.index[ri] = core.Range{Start: int32(start), End: int32(total)}
	}
}
