package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// IntersectSide is one bound input of an ExpandIntersect: the produced
// vertex must be reachable from Var along Et in direction Dir. Dir points
// from Var toward the produced vertex, so DstLabel names the label bound to
// the *new* variable (or storage.AnyLabel). A side always reads the
// adjacency of Var's bound vertex, so it needs no label for Var.
type IntersectSide struct {
	Var      string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	DstLabel catalog.LabelID
}

// ExpandIntersect produces a new vertex variable as the k-way intersection
// of bound variables' adjacencies — the worst-case-optimal (Leapfrog
// Triejoin / EmptyHeaded) counterpart of Expand + ExpandInto chains for
// cyclic subpatterns with two or more closing edges. Where the classical
// plan expands all of side 0's neighbors and then semi-joins (or worse,
// de-factors and hash-joins) each remaining edge, this operator intersects
// the k sorted CSR runs per owner row and materializes only the survivors,
// so diamonds, 4-cycles, and cliques never touch the flat blowup.
//
// Sides[0] is the base: its adjacency enumeration order (with multiplicity)
// defines the output, so results are byte-identical to the de-fused
// Expand(Sides[0]) + ExpandInto(Sides[1:]) chain. A parallel edge on the
// base side yields its neighbour once per edge; on any other side it is a
// membership test, so it counts once. Sorted runs intersect by
// leapfrog/galloping (storage.Intersector); runs a view returns unsorted
// (the runs of several families joined under Both or AnyLabel) probe
// per-source hash sets instead, byte-identical either way.
//
// The new f-Tree child hangs under the deepest side owner — the LCA-closed
// placement: every other side owner must be an ancestor of it so each deep
// row determines one source vertex per side. Sides on sibling branches
// de-factor first, like ExpandInto, and intersect over the rows.
type ExpandIntersect struct {
	To    string
	Sides []IntersectSide
}

// Name implements Operator.
func (o *ExpandIntersect) Name() string { return "ExpandIntersect" }

// Execute implements Operator.
func (o *ExpandIntersect) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	if len(o.Sides) < 2 {
		return nil, fmt.Errorf("op: expand-intersect needs >= 2 sides, got %d", len(o.Sides))
	}
	nodes := make([]*core.Node, len(o.Sides))
	cols := make([]*vector.Column, len(o.Sides))
	for i, s := range o.Sides {
		n, c, err := vidColumn(ft, s.Var)
		if err != nil {
			return nil, err
		}
		nodes[i], cols[i] = n, c
	}

	// The child hangs under the deepest side owner; all other owners must
	// lie on its root path so every deep row fixes one vertex per side.
	deep := nodes[0]
	for _, n := range nodes[1:] {
		switch {
		case ancestorOf(deep, n):
			deep = n
		case ancestorOf(n, deep):
			// n is already an ancestor: nothing to do.
		default:
			// Sibling owners: no single node determines all sides — de-factor
			// (the paper's "ultimate solution" fallback) and intersect over
			// the one-node tree's rows.
			ft, err := defactor(ctx, ft, nil)
			if err != nil {
				return nil, err
			}
			return o.Execute(ctx, ft)
		}
	}
	owners := make([][]int32, len(o.Sides))
	for i := range nodes {
		owners[i] = deep.RowsAbove(nodes[i], ctx.Arena.GetInt32s(deep.Block.NumRows()))
	}
	defer putRows(ctx, owners)

	return produceChild(ctx, ft, deep, childCols{to: o.To}, intersectBody{o, ctx, deep, cols, owners}.rows), nil
}

// sideSrcs builds a side's source column for every deep row in buf
// (capacity at least the row count, typically arena scratch): the side
// vertex of each valid row, NilVID (an empty run) otherwise.
func sideSrcs(deep *core.Node, col *vector.Column, owner []int32, buf []vector.VID) []vector.VID {
	srcs := buf[:len(owner)]
	for i := range srcs {
		if deep.Valid(i) {
			srcs[i] = col.VIDAt(int(owner[i]))
		} else {
			srcs[i] = vector.NilVID
		}
	}
	return srcs
}

// intersectBody is the factorized ExpandIntersect fill.
type intersectBody struct {
	o      *ExpandIntersect
	ctx    *Ctx
	deep   *core.Node
	cols   []*vector.Column
	owners [][]int32
}

// rows intersects every deep row.
func (b intersectBody) rows(s childSink) {
	o, ctx, n := b.o, b.ctx, len(s.index)
	// Side batches and source buffers are transient: the survivors are
	// copied into the sink before this call returns, so everything cycles
	// back through the arena here.
	base := ctx.Arena.GetBatch()
	defer ctx.Arena.PutBatch(base)
	srcs0 := sideSrcs(b.deep, b.cols[0], b.owners[0], ctx.Arena.GetVIDs(n))
	defer ctx.Arena.PutVIDs(srcs0)
	s0 := o.Sides[0]
	ctx.View.NeighborsBatch(srcs0, s0.Et, s0.Dir, s0.DstLabel, false, base)
	probes := make([]*storage.Batch, len(o.Sides)-1)
	probeSrcs := make([][]vector.VID, len(o.Sides)-1)
	defer func() {
		for p := range probes {
			ctx.Arena.PutBatch(probes[p])
			ctx.Arena.PutVIDs(probeSrcs[p])
		}
	}()
	for p := range probes {
		probeSrcs[p] = sideSrcs(b.deep, b.cols[p+1], b.owners[p+1], ctx.Arena.GetVIDs(n))
		probes[p] = ctx.Arena.GetBatch()
		side := o.Sides[p+1]
		ctx.View.NeighborsBatch(probeSrcs[p], side.Et, side.Dir, side.DstLabel, false, probes[p])
	}
	var x storage.Intersector
	x.Reset(base, probes, probeSrcs, true)
	probeLoop(&x, s.toCol, s.index)
}

// probeLoop is the ExpandIntersect inner loop: one Intersector reduction
// per deep row, survivors appended to toCol and row i's range written to
// index[i] (ranges relative to toCol's state at entry). Split out of the
// fill so the hot loop is a checkable kernel, separate from the batch
// fills and Intersector setup that legitimately allocate.
//
//geslint:kernel
func probeLoop(x *storage.Intersector, toCol *vector.Column, index []core.Range) {
	total := toCol.Len()
	var buf []vector.VID
	for i := range index {
		start := total
		buf = x.Row(buf[:0], i)
		for _, v := range buf {
			toCol.AppendVID(v)
		}
		total += len(buf)
		index[i] = core.Range{Start: int32(start), End: int32(total)}
	}
}
