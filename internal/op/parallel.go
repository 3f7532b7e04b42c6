package op

import (
	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/sched"
	"ges/internal/vector"
)

// Intra-query parallelism (§2.1, Runtime): the operators shard their parent
// rows into fixed-size morsels claimed off the shared worker pool
// (internal/sched), then merge the per-morsel outputs in morsel order —
// results are byte-identical to the sequential path regardless of worker
// count or scheduling. Stateful fused predicates are forked once per morsel
// so no predicate state crosses goroutines.
//
// Parallel execution engages when ctx.Parallel > 1 and the parent block is
// large enough to amortize the fork/join (parallelMinRows).

const (
	parallelMinRows = 512

	// expandMorselSize shards parent rows for the expansion, traversal, and
	// de-factoring operators, whose per-row work (neighbor lookups, BFS,
	// enumeration) is substantial.
	expandMorselSize = 256

	// filterMorselSize shards rows for cheap per-row work (predicate
	// evaluation, property gathers). It is a multiple of 64, so concurrent
	// morsels never write the same selection-vector word.
	filterMorselSize = 4096
)

// expandShard is one morsel's output for the lazy (pointer-join) path.
type expandShard struct {
	segs  [][]vector.VID // per-append storage-owned segments
	index []core.Range   // ranges local to this shard (0-based)
	rows  int            // total child rows produced
}

// parallelLazyExpand runs the pointer-based-join expansion across morsels.
// It returns the merged child column and index vector.
func parallelLazyExpand(ctx *Ctx, name string, parent *core.Node, fromCol *vector.Column,
	et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) (*vector.Column, []core.Range) {

	n := parent.Block.NumRows()
	shards := make([]expandShard, sched.NumMorsels(n, expandMorselSize))
	// Each claimant reuses one pooled source-VID buffer across every morsel
	// it drains (worker-local scratch); shard index vectors are pooled per
	// morsel and released after the merge below.
	ctx.RunMorselsScratch(n, expandMorselSize,
		func() any { return ctx.Arena.GetVIDs(expandMorselSize) },
		func(sc any) { ctx.Arena.PutVIDs(sc.([]vector.VID)) },
		func(m sched.Morsel, sc any) {
			sh := &shards[m.Index]
			sh.index = ctx.Arena.GetRanges(m.End - m.Start)
			total := 0
			// One batched call per morsel. The Batch is query-lifetime
			// arena memory (never reset mid-query), so the run sub-slices
			// the shard retains stay valid through the merge and beyond —
			// the lazy column keeps referencing them (shared mode aliases
			// the immutable CSR array; owned mode keeps its pack buffer).
			b := ctx.Arena.OwnBatch()
			srcs := expandSrcs(parent, fromCol, m.Start, m.End, sc.([]vector.VID))
			ctx.View.NeighborsBatch(srcs, et, dir, dstLabel, false, b)
			for i := range b.Runs {
				start := total
				if r := b.Runs[i]; r.End > r.Start {
					sh.segs = append(sh.segs, b.VIDs[r.Start:r.End])
					total += int(r.End - r.Start)
				}
				sh.index = append(sh.index, core.Range{Start: int32(start), End: int32(total)})
			}
			sh.rows = total
		})

	// Deterministic merge: append shard segments in morsel order, offsetting
	// ranges. The merged index lands in the f-Tree, so it is query-lifetime
	// arena memory; the per-shard vectors return to the pool here.
	toCol := ctx.Arena.OwnLazyVIDColumn(name)
	index := ctx.Arena.OwnRanges(n)[:0]
	offset := int32(0)
	for si := range shards {
		sh := &shards[si]
		for _, seg := range sh.segs {
			toCol.AppendSegment(seg)
		}
		for _, rg := range sh.index {
			index = append(index, core.Range{Start: rg.Start + offset, End: rg.End + offset})
		}
		offset += int32(sh.rows)
		ctx.Arena.PutRanges(sh.index)
		sh.index = nil
	}
	return toCol, index
}

// matShard is one morsel's output for the materializing/fused-predicate
// expansion path.
type matShard struct {
	toCol    *vector.Column
	propCols []*vector.Column
	index    []core.Range
}

// parallelMaterialExpand runs the materializing expansion (edge properties
// and/or fused predicates) across morsels and merges the shard outputs in
// morsel order.
func parallelMaterialExpand(ctx *Ctx, o *Expand, parent *core.Node, fromCol *vector.Column,
	epp edgePropPlan) (*core.FBlock, []core.Range) {

	n := parent.Block.NumRows()
	shards := make([]matShard, sched.NumMorsels(n, expandMorselSize))
	ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
		sh := &shards[m.Index]
		pred := o.VertexPred
		if pred != nil {
			pred = pred.Fork()
		}
		// Shard columns feed the merged block below and die with the query;
		// expandRows draws its batch/source/value scratch from the arena
		// internally.
		sh.toCol = ctx.Arena.OwnColumn(o.To, vector.KindVID)
		sh.propCols = make([]*vector.Column, len(o.EdgeProps))
		for p, ep := range o.EdgeProps {
			sh.propCols[p] = ctx.Arena.OwnColumn(ep.As, epp.kind[p])
		}
		sh.index = o.expandRows(ctx, pred, parent, fromCol, epp, m.Start, m.End,
			sh.toCol, sh.propCols, ctx.Arena.GetRanges(m.End-m.Start))
	})

	toCol := ctx.Arena.OwnColumn(o.To, vector.KindVID)
	propCols := make([]*vector.Column, len(o.EdgeProps))
	for p, ep := range o.EdgeProps {
		propCols[p] = ctx.Arena.OwnColumn(ep.As, epp.kind[p])
	}
	index := ctx.Arena.OwnRanges(n)[:0]
	offset := int32(0)
	for si := range shards {
		sh := &shards[si]
		toCol.Extend(sh.toCol)
		for p := range propCols {
			propCols[p].Extend(sh.propCols[p])
		}
		for _, rg := range sh.index {
			index = append(index, core.Range{Start: rg.Start + offset, End: rg.End + offset})
		}
		offset += int32(sh.toCol.Len())
		ctx.Arena.PutRanges(sh.index)
		sh.index = nil
	}
	block := ctx.NewFBlock(toCol)
	for _, pc := range propCols {
		block.AddColumn(pc)
	}
	return block, index
}

// parallelFlatExpand runs the flat-path expansion across morsels of input
// rows, merging per-morsel row blocks in morsel order.
func parallelFlatExpand(ctx *Ctx, o *Expand, in *core.FlatBlock, fromIdx int,
	names []string, kinds []vector.Kind, epp edgePropPlan) (*core.FlatBlock, error) {

	n := len(in.Rows)
	shards := make([]*core.FlatBlock, sched.NumMorsels(n, expandMorselSize))
	ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
		pred := o.VertexPred
		if pred != nil {
			pred = pred.Fork()
		}
		sh := core.NewFlatBlock(names, kinds)
		// One NeighborsBatch per morsel; errors cannot occur because the row
		// limit is checked once after the merge.
		//geslint:err-ok the row limit is enforced once after the merge; expandFlatRows has no other failure path
		_ = o.expandFlatRows(ctx, pred, in, fromIdx, epp, m.Start, m.End, names, sh)
		shards[m.Index] = sh
	})

	out := core.NewFlatBlock(names, kinds)
	for _, sh := range shards {
		out.Rows = append(out.Rows, sh.Rows...)
	}
	if ctx.MaxRows > 0 && out.NumRows() > ctx.MaxRows {
		return nil, errRowLimit("flat expand", out.NumRows(), ctx.MaxRows)
	}
	return out, nil
}

// traverseShard is one morsel's var-length output.
type traverseShard struct {
	perRow [][]vector.VID // reachable vertices per parent row in the shard
}

// parallelTraverse runs the bounded BFS/DFS of VarLengthExpand across
// morsels of source rows. Fused vertex predicates are forked per morsel, so
// predicate-carrying var-expands parallelize like plain ones.
func parallelTraverse(ctx *Ctx, o *VarLengthExpand, parent *core.Node, fromCol *vector.Column) (*vector.Column, []core.Range) {
	n := parent.Block.NumRows()
	shards := make([]traverseShard, sched.NumMorsels(n, expandMorselSize))
	ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
		sh := &shards[m.Index]
		pred := o.VertexPred
		if pred != nil {
			pred = pred.Fork()
		}
		sh.perRow = make([][]vector.VID, m.End-m.Start)
		// The view is safe for concurrent reads; traversal scratch state is
		// local to each call.
		for i := m.Start; i < m.End; i++ {
			if !parent.Valid(i) {
				continue
			}
			row := i - m.Start
			o.traverse(ctx, pred, fromCol.VIDAt(i), func(v vector.VID) {
				sh.perRow[row] = append(sh.perRow[row], v)
			})
		}
	})

	toCol := ctx.Arena.OwnColumn(o.To, vector.KindVID)
	index := ctx.Arena.OwnRanges(n)[:0]
	total := int32(0)
	for _, sh := range shards {
		for _, vs := range sh.perRow {
			start := total
			for _, v := range vs {
				toCol.AppendVID(v)
				total++
			}
			index = append(index, core.Range{Start: start, End: total})
		}
	}
	return toCol, index
}

// DefactorNames materializes the named attributes (the full schema when
// names is nil) of every valid tuple, sharding root rows into morsels when
// the context allows parallel execution. Per-morsel blocks are concatenated
// in morsel order, so output is byte-identical to FTree.Defactor.
func DefactorNames(ctx *Ctx, ft *core.FTree, names []string) (*core.FlatBlock, error) {
	if names == nil {
		names = ft.Schema()
	}
	n := ft.Root.Block.NumRows()
	if ctx == nil || ctx.Parallel <= 1 || n < parallelMinRows {
		return ft.Defactor(names)
	}
	// Resolve once up front so per-morsel calls cannot fail.
	if _, err := ft.Resolve(names); err != nil {
		return nil, err
	}
	shards := make([]*core.FlatBlock, sched.NumMorsels(n, expandMorselSize))
	ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
		//geslint:err-ok Resolve validated the name set above; DefactorRange cannot fail for a resolved schema
		fb, _ := ft.DefactorRange(names, m.Start, m.End)
		shards[m.Index] = fb
	})
	out := shards[0]
	for _, sh := range shards[1:] {
		out.Rows = append(out.Rows, sh.Rows...)
	}
	return out, nil
}

// DefactorAll materializes every attribute of the tree, in parallel when the
// context allows it.
func DefactorAll(ctx *Ctx, ft *core.FTree) (*core.FlatBlock, error) {
	return DefactorNames(ctx, ft, nil)
}

// parallelGather fills a column of n rows by evaluating get per row across
// morsels — the Projection property-gather port. get must be safe for
// concurrent calls on distinct rows (property reads through the storage
// view are).
func parallelGather(ctx *Ctx, name string, kind vector.Kind, n int, get func(i int) vector.Value) *vector.Column {
	// The staging buffer is transient: NewColumnFromValues copies every
	// value into typed storage, so the boxed rows return to the pool here.
	vals := ctx.Arena.GetVals(n)
	ctx.RunMorsels(n, filterMorselSize, func(m sched.Morsel) {
		for i := m.Start; i < m.End; i++ {
			vals[i] = get(i)
		}
	})
	col := vector.NewColumnFromValues(name, kind, vals)
	ctx.Arena.PutVals(vals)
	return col
}
