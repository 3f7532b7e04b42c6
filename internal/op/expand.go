package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/storage"
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
// On the factorized path each execution adds exactly one f-Tree node under
// From's node: neighbor IDs land in a new f-Block and the per-parent row
// ranges form the index vector of the new edge. When no edge properties or
// fused predicates are requested, the neighbor column stays *lazy* — it
// records (pointer,length) references into the storage adjacency array, the
// pointer-based join of §5.
//
// VertexPred / EdgePropPred implement the FilterPushDown (ExpandFilter)
// fusion: predicates are applied while expanding so rejected neighbors are
// never materialized at all.
type Expand struct {
	From, To string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	DstLabel catalog.LabelID

	EdgeProps []EdgeProj

	// VertexPred filters candidate neighbors by their own vertex data.
	VertexPred VertexPred
	// EdgePropPred filters candidates by the projected edge-property values
	// (ordered per EdgeProps).
	EdgePropPred func(props []vector.Value) bool

	// NoLazy disables the pointer-based join (lazy neighbor segments) and
	// forces materialized neighbor IDs — the ablation knob for §5's
	// pointer-based-join claim.
	NoLazy bool
}

// Name implements Operator.
func (o *Expand) Name() string {
	if o.VertexPred != nil || o.EdgePropPred != nil {
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
func (o *Expand) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	epp, err := o.resolveEdgeProps(ctx.View.Catalog())
	if err != nil {
		return nil, err
	}
	if in.IsFlat() {
		return o.executeFlat(ctx, in.Flat, epp)
	}
	return o.executeFactorized(ctx, in.FT, epp)
}

func (o *Expand) executeFactorized(ctx *Ctx, ft *core.FTree, epp edgePropPlan) (*core.Chunk, error) {
	parent, fromCol, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	lazyOK := !o.NoLazy && len(o.EdgeProps) == 0 && o.VertexPred == nil && o.EdgePropPred == nil

	// The index vector lands in the new f-Tree node, so it is query-lifetime
	// arena memory, released wholesale when the engine ends the query.
	index := ctx.Arena.OwnRanges(parent.Block.NumRows())
	if lazyOK {
		if ctx.Parallel > 1 && parent.Block.NumRows() >= parallelMinRows {
			toCol, pidx := parallelLazyExpand(ctx, o.To, parent, fromCol, o.Et, o.Dir, o.DstLabel)
			ft.AddChild(parent, ctx.NewFBlock(toCol), pidx)
			assertFTree(ft)
			return ctx.FTChunk(ft), nil
		}
		toCol := ctx.Arena.OwnLazyVIDColumn(o.To)
		// Batched kernel: one NeighborsBatch call resolves every parent
		// row (prefix-sum lookups on a sealed CSR, no per-row family
		// map probes); each non-empty run appends as one lazy segment.
		// The lazy column retains run sub-slices of the batch, so the
		// batch is query-lifetime (OwnBatch), not morsel scratch.
		b := ctx.Arena.OwnBatch()
		srcs := expandSrcs(parent, fromCol, 0, parent.Block.NumRows(),
			ctx.Arena.GetVIDs(parent.Block.NumRows()))
		ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, false, b)
		ctx.Arena.PutVIDs(srcs)
		total := 0
		for i, r := range b.Runs {
			start := total
			if r.End > r.Start {
				_, total = toCol.AppendSegment(b.VIDs[r.Start:r.End])
			}
			index[i] = core.Range{Start: int32(start), End: int32(total)}
		}
		ft.AddChild(parent, ctx.NewFBlock(toCol), index)
		assertFTree(ft)
		return ctx.FTChunk(ft), nil
	}

	// Materializing path: edge properties or fused predicates requested.
	if ctx.Parallel > 1 && parent.Block.NumRows() >= parallelMinRows {
		block, pidx := parallelMaterialExpand(ctx, o, parent, fromCol, epp)
		ft.AddChild(parent, block, pidx)
		assertFTree(ft)
		return ctx.FTChunk(ft), nil
	}
	toCol := ctx.Arena.OwnColumn(o.To, vector.KindVID)
	propCols := make([]*vector.Column, len(o.EdgeProps))
	for i, ep := range o.EdgeProps {
		propCols[i] = ctx.Arena.OwnColumn(ep.As, epp.kind[i])
	}
	index = o.expandRows(ctx, o.VertexPred, parent, fromCol, epp, 0, parent.Block.NumRows(), toCol, propCols, index[:0])
	block := ctx.NewFBlock(toCol)
	for _, pc := range propCols {
		block.AddColumn(pc)
	}
	ft.AddChild(parent, block, index)
	assertFTree(ft)
	return ctx.FTChunk(ft), nil
}

// expandSrcs builds a batched neighbor request for parent rows [lo,hi) into
// buf (typically pooled VID scratch; the caller releases it after the batch
// call returns): the From VID per valid row, NilVID (an empty run) for
// invalid rows, so the returned runs stay aligned with the row range.
func expandSrcs(parent *core.Node, fromCol *vector.Column, lo, hi int, buf []vector.VID) []vector.VID {
	srcs := buf[:0]
	for i := lo; i < hi; i++ {
		if parent.Valid(i) {
			srcs = append(srcs, fromCol.VIDAt(i))
		} else {
			srcs = append(srcs, vector.NilVID)
		}
	}
	return srcs
}

// expandRows runs the materializing expansion for parent rows [lo,hi),
// appending neighbors to toCol/propCols and one range per parent row to
// index (ranges are relative to toCol's state at entry). It is the single
// implementation behind both the sequential path and each parallel morsel,
// which keeps parallel output byte-identical to sequential execution.
//
// Candidates come from one batched NeighborsBatch call per invocation (one
// prefix-sum pass on a sealed CSR).
func (o *Expand) expandRows(ctx *Ctx, pred VertexPred, parent *core.Node, fromCol *vector.Column,
	epp edgePropPlan, lo, hi int, toCol *vector.Column, propCols []*vector.Column, index []core.Range) []core.Range {

	withProps := len(o.EdgeProps) > 0
	var propVals []vector.Value
	if withProps {
		propVals = ctx.Arena.GetVals(len(o.EdgeProps))
		defer ctx.Arena.PutVals(propVals)
	}
	total := toCol.Len()

	// Materializing path: every value is copied out of the batch before
	// this call returns, so the batch is transient scratch.
	b := ctx.Arena.GetBatch()
	defer ctx.Arena.PutBatch(b)
	srcs := expandSrcs(parent, fromCol, lo, hi, ctx.Arena.GetVIDs(hi-lo))
	ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, withProps, b)
	ctx.Arena.PutVIDs(srcs)
	for ri := range b.Runs {
		start := total
		r := b.Runs[ri]
		cands := b.VIDs[r.Start:r.End]
		// Large runs evaluate the fused predicate in one batch
		// (zone-map skip + gather + kernels, predbatch.go); the keep
		// mask is indexed by run position. Small runs and predicates
		// without a batch path test per row.
		keep := testVertexBatch(ctx, pred, cands)
		for k, v := range cands {
			if pred != nil {
				if keep != nil {
					if !keep[k] {
						continue
					}
				} else if !pred.Test(ctx, v) {
					continue
				}
			}
			for p := range o.EdgeProps {
				propVals[p] = batchPropValue(b, epp, p, int(r.Start)+k)
			}
			if o.EdgePropPred != nil && !o.EdgePropPred(propVals) {
				continue
			}
			toCol.AppendVID(v)
			for p, pc := range propCols {
				pc.Append(propVals[p])
			}
			total++
		}
		index = append(index, core.Range{Start: int32(start), End: int32(total)})
	}
	return index
}

// batchPropValue extracts edge property p (plan position) for the neighbor
// at absolute batch index k.
func batchPropValue(b *storage.Batch, epp edgePropPlan, p, k int) vector.Value {
	si := epp.idx[p]
	switch epp.kind[p] {
	case vector.KindInt64:
		return vector.Int64(b.PropI64[si][k])
	case vector.KindDate:
		return vector.Date(b.PropI64[si][k])
	case vector.KindFloat64:
		return vector.Float64(b.PropF64[si][k])
	case vector.KindString:
		return vector.String_(b.PropStr[si][k])
	default:
		return vector.Value{}
	}
}

func (o *Expand) executeFlat(ctx *Ctx, in *core.FlatBlock, epp edgePropPlan) (*core.Chunk, error) {
	fromIdx := in.ColIndex(o.From)
	if fromIdx < 0 {
		return nil, errNoColumn("expand", o.From)
	}
	names := append(append([]string(nil), in.Names...), o.To)
	kinds := append(append([]vector.Kind(nil), in.Kinds...), vector.KindVID)
	for i, ep := range o.EdgeProps {
		names = append(names, ep.As)
		kinds = append(kinds, epp.kind[i])
	}
	if ctx.Parallel > 1 && len(in.Rows) >= parallelMinRows {
		fb, err := parallelFlatExpand(ctx, o, in, fromIdx, names, kinds, epp)
		if err != nil {
			return nil, err
		}
		return ctx.FlatChunk(fb), nil
	}
	out := core.NewFlatBlock(names, kinds)
	if err := o.expandFlatRows(ctx, o.VertexPred, in, fromIdx, epp, 0, len(in.Rows), names, out); err != nil {
		return nil, err
	}
	if ctx.MaxRows > 0 && out.NumRows() > ctx.MaxRows {
		return nil, errRowLimit("flat expand", out.NumRows(), ctx.MaxRows)
	}
	return ctx.FlatChunk(out), nil
}

// expandFlatRows expands input rows [lo,hi) into out — the single flat-path
// implementation behind the sequential path and each parallel morsel.
// Candidates come from one batched neighbor call per invocation.
func (o *Expand) expandFlatRows(ctx *Ctx, pred VertexPred, in *core.FlatBlock, fromIdx int,
	epp edgePropPlan, lo, hi int, names []string, out *core.FlatBlock) error {

	withProps := len(o.EdgeProps) > 0
	var propVals []vector.Value
	if withProps {
		propVals = ctx.Arena.GetVals(len(o.EdgeProps))
		defer ctx.Arena.PutVals(propVals)
	}
	emit := func(row []vector.Value, v vector.VID) {
		// The output row escapes into the result block, so it is never
		// pooled.
		nr := make([]vector.Value, 0, len(names))
		nr = append(nr, row...)
		nr = append(nr, vector.VIDValue(v))
		nr = append(nr, propVals...)
		out.AppendOwned(nr)
	}

	srcs := ctx.Arena.GetVIDs(hi - lo)
	for i := lo; i < hi; i++ {
		srcs = append(srcs, in.Rows[i][fromIdx].AsVID())
	}
	b := ctx.Arena.GetBatch()
	defer ctx.Arena.PutBatch(b)
	ctx.View.NeighborsBatch(srcs, o.Et, o.Dir, o.DstLabel, withProps, b)
	ctx.Arena.PutVIDs(srcs)
	for ri := range b.Runs {
		row := in.Rows[lo+ri]
		r := b.Runs[ri]
		cands := b.VIDs[r.Start:r.End]
		keep := testVertexBatch(ctx, pred, cands)
		for k, v := range cands {
			if pred != nil {
				if keep != nil {
					if !keep[k] {
						continue
					}
				} else if !pred.Test(ctx, v) {
					continue
				}
			}
			for p := range o.EdgeProps {
				propVals[p] = batchPropValue(b, epp, p, int(r.Start)+k)
			}
			if o.EdgePropPred != nil && !o.EdgePropPred(propVals) {
				continue
			}
			emit(row, v)
		}
	}
	return nil
}
