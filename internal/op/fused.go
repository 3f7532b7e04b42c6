package op

import (
	"sort"

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
// Top-K collapsed into one operator. Two factorized strategies apply:
//
//  1. When every group-by column and aggregate argument lives on a single
//     f-Tree node, aggregation runs as a *weighted* pass over that node's
//     rows, where each row is weighted by the number of valid full tuples it
//     participates in (computed by one up/down sweep over the tree) — no
//     tuple is ever enumerated.
//  2. Otherwise the constant-delay enumeration streams the needed columns
//     straight into the aggregation hash table.
//
// Either way the result feeds a bounded top-k heap, so peak memory is the
// group table plus the heap — compare Table 2's IC5 collapse from hundreds
// of megabytes to under 2 KB.
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
	var grouped *core.FlatBlock
	var err error
	switch {
	case in.IsFlat():
		grouped, err = hashAggregate(in.Flat, o.GroupBy, o.Aggs)
	default:
		grouped, err = o.factorizedAggregate(ctx, in.FT)
	}
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
	out := core.NewFlatBlock(grouped.Names, grouped.Kinds)
	if o.Limit == 1 {
		// Degenerate top-k: a strict-less max scan replays exactly the
		// comparison sequence of a size-1 heap (first row seeds, later rows
		// replace only when strictly less), without the heap machinery.
		if len(grouped.Rows) > 0 {
			best := grouped.Rows[0]
			for _, row := range grouped.Rows[1:] {
				if rowLess(row, best, keyIdx) {
					best = row
				}
			}
			out.Rows = [][]vector.Value{append([]vector.Value(nil), best...)}
		}
	} else if o.Limit > 0 {
		h := newTopK(o.Limit, keyIdx)
		for _, row := range grouped.Rows {
			h.offer(row)
		}
		out.Rows = h.sorted()
	} else {
		out.Rows = append([][]vector.Value(nil), grouped.Rows...)
		sort.SliceStable(out.Rows, func(a, b int) bool {
			return rowLess(out.Rows[a], out.Rows[b], keyIdx)
		})
	}
	return ctx.FlatChunk(out), nil
}

// factorizedAggregate aggregates a tree without materializing it.
func (o *AggregateProjectTop) factorizedAggregate(ctx *Ctx, ft *core.FTree) (*core.FlatBlock, error) {
	needed := append([]string(nil), o.GroupBy...)
	for _, a := range o.Aggs {
		if a.Arg != "" {
			needed = append(needed, a.Arg)
		}
	}
	if node := ft.NodeOfColumns(needed); node != nil {
		return o.weightedAggregate(ctx, ft, node)
	}
	return o.streamingAggregate(ft, needed)
}

// weightedAggregate runs strategy 1: single-node aggregation weighted by
// full-tuple participation counts.
func (o *AggregateProjectTop) weightedAggregate(ctx *Ctx, ft *core.FTree, node *core.Node) (*core.FlatBlock, error) {
	// Single-node trees (plain scans) need no weight sweep: every selected
	// row is exactly one tuple. The batch path skips the per-node weight
	// slices; w == nil means "selection vector is the weight".
	var w []int64
	if len(ft.Nodes()) > 1 {
		w = tupleWeights(ft)[node.ID()]
	}
	block := node.Block

	groupCols := make([]*vector.Column, len(o.GroupBy))
	groupKinds := make([]vector.Kind, len(o.GroupBy))
	for i, g := range o.GroupBy {
		c := block.ColumnByName(g)
		if c == nil {
			return nil, errNoColumn("fused-aggregate", g)
		}
		groupCols[i] = c
		groupKinds[i] = c.Kind
	}
	argCols := make([]*vector.Column, len(o.Aggs))
	argKind := make([]vector.Kind, len(o.Aggs))
	for j, a := range o.Aggs {
		if a.Arg == "" {
			argKind[j] = vector.KindInt64
			continue
		}
		c := block.ColumnByName(a.Arg)
		if c == nil {
			return nil, errNoColumn("fused-aggregate", a.Arg)
		}
		argCols[j] = c
		argKind[j] = c.Kind
	}

	groups := make(map[string]*aggState)
	groupVals := make([]vector.Value, len(o.GroupBy))
	// Vectorized key path (§5): a single integer/date or dict-encoded string
	// group column keys the hash table by its raw 8-byte value / 4-byte code,
	// so the per-row string key is built only once per distinct group. The
	// same aggState instances land in the rowKey-keyed map, so emission (and
	// its deterministic ordering) is unchanged.
	var fastKey func(i int) int64
	if len(groupCols) == 1 {
		switch c := groupCols[0]; {
		case c.Lazy():
		case c.Kind == vector.KindInt64 || c.Kind == vector.KindDate:
			vals := c.Int64s()
			fastKey = func(i int) int64 { return vals[i] }
		case c.Kind == vector.KindString && c.DictEncoded():
			codes := c.Codes()
			fastKey = func(i int) int64 { return int64(codes[i]) }
		}
	}
	var byCode map[int64]*aggState
	if fastKey != nil {
		byCode = make(map[int64]*aggState)
	}
	for i := 0; i < block.NumRows(); i++ {
		wi := int64(1)
		if w != nil {
			if wi = w[i]; wi == 0 {
				continue
			}
		} else if !node.Sel.Get(i) {
			continue
		}
		var st *aggState
		if fastKey != nil {
			code := fastKey(i)
			var ok bool
			if st, ok = byCode[code]; !ok {
				groupVals[0] = groupCols[0].Get(i)
				st = newAggState(groupVals, o.Aggs)
				byCode[code] = st
				groups[rowKey(groupVals)] = st
			}
		} else {
			for gi, gc := range groupCols {
				groupVals[gi] = gc.Get(i)
			}
			key := rowKey(groupVals)
			var ok bool
			if st, ok = groups[key]; !ok {
				st = newAggState(groupVals, o.Aggs)
				groups[key] = st
			}
		}
		for j, a := range o.Aggs {
			var v vector.Value
			if argCols[j] != nil {
				v = argCols[j].Get(i)
			}
			st.update(j, a, v, wi)
		}
	}
	return emitAggregates(o.GroupBy, groupKinds, o.Aggs, argKind, groups)
}

// streamingAggregate runs strategy 2: enumerate only the needed columns
// directly into the group table.
func (o *AggregateProjectTop) streamingAggregate(ft *core.FTree, needed []string) (*core.FlatBlock, error) {
	// Deduplicate the needed column list, preserving order.
	seen := make(map[string]int)
	var cols []string
	for _, c := range needed {
		if _, ok := seen[c]; !ok {
			seen[c] = len(cols)
			cols = append(cols, c)
		}
	}
	refs, err := ft.Resolve(cols)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = ft.Nodes()[r.Node].Block.Column(r.Col).Kind
	}

	groupIdx := make([]int, len(o.GroupBy))
	for i, g := range o.GroupBy {
		groupIdx[i] = seen[g]
	}
	argIdx := make([]int, len(o.Aggs))
	argKind := make([]vector.Kind, len(o.Aggs))
	for j, a := range o.Aggs {
		if a.Arg == "" {
			argIdx[j] = -1
			argKind[j] = vector.KindInt64
			continue
		}
		argIdx[j] = seen[a.Arg]
		argKind[j] = kinds[seen[a.Arg]]
	}

	groups := make(map[string]*aggState)
	groupVals := make([]vector.Value, len(o.GroupBy))
	ft.Enumerate(refs, func(row []vector.Value) bool {
		for i, gi := range groupIdx {
			groupVals[i] = row[gi]
		}
		key := rowKey(groupVals)
		st, ok := groups[key]
		if !ok {
			st = newAggState(groupVals, o.Aggs)
			groups[key] = st
		}
		for j, a := range o.Aggs {
			var v vector.Value
			if argIdx[j] >= 0 {
				v = row[argIdx[j]]
			}
			st.update(j, a, v, 1)
		}
		return true
	})

	groupKinds := make([]vector.Kind, len(o.GroupBy))
	for i := range o.GroupBy {
		groupKinds[i] = kinds[groupIdx[i]]
	}
	return emitAggregates(o.GroupBy, groupKinds, o.Aggs, argKind, groups)
}

// tupleWeights computes, for every f-Tree row, the number of valid full
// tuples of R_FT that the row participates in. One bottom-up ("down") pass
// computes subtree counts and one top-down ("up") pass distributes the
// context of the rest of the tree; weight = down × up. The passes work in two
// buffers per node — the weights are folded into the up buffers — and one
// scratch the sibling sums of every node share.
func tupleWeights(ft *core.FTree) [][]int64 {
	nodes := ft.Nodes()
	n := len(nodes)
	down := make([][]int64, n)
	maxSums := 0
	// Bottom-up: children have larger IDs than parents (preorder append).
	for i := n - 1; i >= 0; i-- {
		nd := nodes[i]
		rows := nd.Block.NumRows()
		maxSums = max(maxSums, rows*len(nd.Children))
		d := make([]int64, rows)
		for r := 0; r < rows; r++ {
			if !nd.Sel.Get(r) {
				continue
			}
			prod := int64(1)
			for _, c := range nd.Children {
				rg := c.Index[r]
				sum := int64(0)
				for j := rg.Start; j < rg.End; j++ {
					sum += down[c.ID()][j]
				}
				prod *= sum
				if prod == 0 {
					break
				}
			}
			d[r] = prod
		}
		down[i] = d
	}
	up := make([][]int64, n)
	for i := range up {
		up[i] = make([]int64, nodes[i].Block.NumRows())
	}
	for r := range up[0] {
		if nodes[0].Sel.Get(r) {
			up[0][r] = 1
		}
	}
	// Top-down in preorder: parents are processed before children.
	scratch := make([]int64, maxSums)
	var sums [][]int64
	for _, nd := range nodes {
		if len(nd.Children) == 0 {
			continue
		}
		rows := nd.Block.NumRows()
		// Per-row sibling sums.
		sums = sums[:0]
		for ci, c := range nd.Children {
			s := scratch[ci*rows : (ci+1)*rows]
			for r := 0; r < rows; r++ {
				rg := c.Index[r]
				var sum int64
				for j := rg.Start; j < rg.End; j++ {
					sum += down[c.ID()][j]
				}
				s[r] = sum
			}
			sums = append(sums, s)
		}
		for ci, c := range nd.Children {
			for r := 0; r < rows; r++ {
				// Only valid parent rows extend tuples downward: up[u][i]
				// may be positive for rows the selection vector has since
				// invalidated, and those must not propagate.
				if up[nd.ID()][r] == 0 || !nd.Sel.Get(r) {
					continue
				}
				prodOthers := up[nd.ID()][r]
				for cj := range nd.Children {
					if cj != ci {
						prodOthers *= sums[cj][r]
					}
					if prodOthers == 0 {
						break
					}
				}
				if prodOthers == 0 {
					continue
				}
				rg := c.Index[r]
				for j := rg.Start; j < rg.End; j++ {
					up[c.ID()][j] = prodOthers
				}
			}
		}
	}
	for i, w := range up {
		for r := range w {
			w[r] *= down[i][r]
		}
	}
	return up
}
