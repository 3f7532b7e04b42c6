package op

import (
	"fmt"
	"slices"

	"ges/internal/core"
	"ges/internal/sched"
	"ges/internal/vector"
)

// Intra-query parallelism (§2.1, Runtime). Every morsel-capable operator has
// exactly one range body — the work for rows [lo,hi) of its input, written
// into a sink — and this file alone decides how many shards drive it. One
// shard is sequential execution: the body runs once over [0,n) on the calling
// goroutine, straight into the operator's final output, with no scheduler
// call, shard object or merge copy. k shards run the same body once per
// morsel on the shared worker pool (internal/sched) into per-morsel sinks
// that one index-ordered merge concatenates — results are byte-identical at
// every worker count because there is no other code to diverge from.
// A fused predicate's batch scratch is forked once per morsel (shardPred) so
// no predicate state crosses goroutines.
//
// Three drivers cover the operators: forRanges for in-place kernels that
// write disjoint positions of pre-sized state and need no merge,
// produceChild for operators that grow the f-Tree by one node, tupleRows
// for the tuple-index enumeration of a de-factor.

const (
	// parallelMinRows is the input size below which the fork/join cannot be
	// amortized and one shard drives the body whatever the worker budget.
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

// shards is the one shard decision: how many morsels of size rows drive a
// range body over n input rows. 1 means the caller runs the body itself over
// [0,n). Parallel is a deployment resource setting (gesd -parallel,
// DB.SetParallelism); the sizes are constants.
func (c *Ctx) shards(n, size int) int {
	if c.Parallel > 1 && n >= parallelMinRows {
		return sched.NumMorsels(n, size)
	}
	return 1
}

// forRanges drives an in-place range kernel: fn writes only positions
// [lo,hi) of state sized before the call (selection bits, row slots, column
// slots), so ranges need no merge. size must keep concurrent ranges off
// shared words — filterMorselSize for anything touching a selection vector.
func forRanges(ctx *Ctx, n, size int, fn func(lo, hi int)) {
	if ctx.shards(n, size) == 1 {
		fn(0, n)
		return
	}
	ctx.RunMorsels(n, size, func(m sched.Morsel) { fn(m.Start, m.End) })
}

// shardPred returns the fused-predicate instance a range body over [lo,hi)
// of n rows must use. The range covering the whole input is the one shard on
// the calling goroutine and keeps the instance the operator bound; any
// narrower range is one morsel of several and gets a fork, so batch scratch
// is never shared across workers.
func shardPred(ctx *Ctx, pred *vertexFilter, lo, hi, n int) *vertexFilter {
	if pred == nil || (lo == 0 && hi == n) {
		return pred
	}
	return pred.fork(ctx)
}

// childCols names the columns of the f-Tree node a producer adds: the new
// variable's VID column and one column per projected edge property.
type childCols struct {
	to    string
	props []EdgeProj
	kinds []vector.Kind
}

// childSink is where a range body over parent rows [lo,hi) writes: children
// append to toCol (edge properties to propCols in step), and index[i-lo]
// receives parent row i's child range, relative to toCol's length when the
// body was entered. The one shard's sink is the node itself; a morsel's sink
// is a private set of columns plus its own sub-slice of the node's index
// vector.
type childSink struct {
	toCol    *vector.Column
	propCols []*vector.Column
	index    []core.Range
}

// sink returns empty query-lifetime columns over index.
func (cc childCols) sink(ctx *Ctx, index []core.Range) childSink {
	s := childSink{
		toCol:    ctx.Arena.OwnColumn(cc.to, vector.KindVID),
		propCols: make([]*vector.Column, len(cc.props)),
		index:    index,
	}
	for p, ep := range cc.props {
		s.propCols[p] = ctx.Arena.OwnColumn(ep.As, cc.kinds[p])
	}
	return s
}

// childBody is the range body of an operator that adds one f-Tree node.
// Bodies are small value structs rather than closures: a closure handed to
// the pool would be heap-allocated on every call, including the one-shard
// call that never leaves this goroutine.
type childBody interface {
	rows(lo, hi int, s childSink)
}

// produceChild runs body over every row of parent and hangs the result under
// it as a new node. Shard sinks concatenate in morsel order, each morsel's
// ranges rebased by the number of children the morsels before it produced.
func produceChild[B childBody](ctx *Ctx, ft *core.FTree, parent *core.Node, cols childCols, body B) *core.FTree {
	n := parent.Block.NumRows()
	// The index vector lands in the new f-Tree node, so it is query-lifetime
	// arena memory, released wholesale when the engine ends the query. There
	// is one per call at every shard count: morsels fill disjoint sub-slices.
	index := ctx.Arena.OwnRanges(n)
	out := cols.sink(ctx, index)
	if k := ctx.shards(n, expandMorselSize); k == 1 {
		body.rows(0, n, out)
	} else {
		// The closure below escapes to the pool; capturing copies made here
		// keeps that cost out of the one-shard call whatever a body's size.
		body, cols := body, cols
		shards := make([]childSink, k)
		ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
			shards[m.Index] = cols.sink(ctx, index[m.Start:m.End])
			body.rows(m.Start, m.End, shards[m.Index])
		})
		offset := int32(0)
		for _, sh := range shards {
			out.toCol.Extend(sh.toCol)
			for p, pc := range out.propCols {
				pc.Extend(sh.propCols[p])
			}
			for i := range sh.index {
				sh.index[i].Start += offset
				sh.index[i].End += offset
			}
			offset += int32(sh.toCol.Len())
		}
	}
	block := ctx.NewFBlock(out.toCol)
	for _, pc := range out.propCols {
		block.AddColumn(pc)
	}
	ft.AddChild(parent, block, index)
	assertFTree(ft)
	return ft
}

// defactor returns a one-node tree over the named columns (every column
// when names is nil) of the valid tuples of ft, in enumeration order: the
// tuples' row indices (tupleRows), checked against ctx.MaxRows, then one
// typed gather per column by row index (vector.Column.Gather), so a
// dictionary column keeps its codes and its dictionary. A one-node tree is
// de-factored already: asked for its own schema it comes back as it is, and
// with every row valid a narrowed tree shares its columns, moving no row.
func defactor(ctx *Ctx, ft *core.FTree, names []string) (*core.FTree, error) {
	if root := ft.Root; ft.NumNodes() == 1 {
		if names == nil || slices.Equal(names, root.Block.Schema()) {
			return ft, checkRows(ctx, root.Sel.Count())
		}
		if root.Sel.Count() == root.Block.NumRows() {
			b := ctx.NewFBlock()
			for _, name := range names {
				c := root.Block.ColumnByName(name)
				if c == nil {
					return nil, errNoColumn("defactor", name)
				}
				b.AddColumn(c)
			}
			return ctx.Arena.OwnFTree(b), checkRows(ctx, root.Block.NumRows())
		}
	}
	if names == nil {
		names = ft.Schema()
	}
	cols, pos, nodes, err := tupleCols(ft, names)
	if err != nil {
		return nil, err
	}
	rows := tupleRows(ctx, ft, nodes)
	defer putRows(ctx, rows)
	if len(rows) > 0 {
		if err := checkRows(ctx, len(rows[0])); err != nil {
			return nil, err
		}
	}
	return ctx.Arena.OwnFTree(gatherBlock(ctx, names, cols, pos, rows)), nil
}

// checkRows fails a de-factor of n tuples past ctx.MaxRows.
func checkRows(ctx *Ctx, n int) error {
	if ctx.MaxRows > 0 && n > ctx.MaxRows {
		return fmt.Errorf("op: de-factoring produced %d rows, over limit %d", n, ctx.MaxRows)
	}
	return nil
}

// tupleCols resolves names to their columns in ft, each with the position
// of its node among nodes — the nodes a tuple's rows are recorded for.
func tupleCols(ft *core.FTree, names []string) (cols []*vector.Column, pos, nodes []int, err error) {
	refs, err := ft.Resolve(names)
	if err != nil {
		return nil, nil, nil, err
	}
	cols, pos = make([]*vector.Column, len(refs)), make([]int, len(refs))
	for i, r := range refs {
		n := ft.Nodes()[r.Node]
		cols[i] = n.Block.Column(r.Col)
		nodes, pos[i] = tuplePos(nodes, n)
	}
	return cols, pos, nodes, nil
}

// tupleRows enumerates the valid tuples of ft and returns, for each node of
// nodes, its row in every tuple: rows[k][t] is node nodes[k]'s row in tuple
// t. Morsels of root rows enumerate on their own and concatenate in order,
// so the rows are the same at every worker count (FTree.EnumerateRows). The
// caller returns the rows with putRows.
func tupleRows(ctx *Ctx, ft *core.FTree, nodes []int) [][]int32 {
	n := ft.Root.Block.NumRows()
	rows := make([][]int32, len(nodes))
	for k := range rows {
		rows[k] = ctx.Arena.GetInt32s(n)
	}
	if ctx.shards(n, expandMorselSize) == 1 {
		appendTuples(ft, nodes, 0, n, 0, -1, rows)
		return rows
	}
	shards := make([][][]int32, sched.NumMorsels(n, expandMorselSize))
	ctx.RunMorsels(n, expandMorselSize, func(m sched.Morsel) {
		sh := make([][]int32, len(nodes))
		appendTuples(ft, nodes, m.Start, m.End, 0, -1, sh)
		shards[m.Index] = sh
	})
	for _, sh := range shards {
		for k := range rows {
			rows[k] = append(rows[k], sh[k]...)
		}
	}
	return rows
}

// appendTuples appends to rows[k] node nodes[k]'s row in each valid tuple
// under root rows [lo,hi), after skipping skip tuples and up to limit tuples
// (every one when limit < 0), and returns the tuples it appended.
func appendTuples(ft *core.FTree, nodes []int, lo, hi, skip, limit int, rows [][]int32) (n int) {
	if limit == 0 {
		return 0
	}
	ft.EnumerateRows(lo, hi, func(cur []int, _ int) bool {
		if skip > 0 {
			skip--
			return true
		}
		for k, id := range nodes {
			rows[k] = append(rows[k], int32(cur[id]))
		}
		n++
		return n != limit
	})
	return n
}

// putRows returns tupleRows' rows to the arena.
func putRows(ctx *Ctx, rows [][]int32) {
	for _, r := range rows {
		ctx.Arena.PutInt32s(r)
	}
}

// gatherBlock returns a block of the named columns: column i is cols[i]
// gathered at rows[pos[i]].
func gatherBlock(ctx *Ctx, names []string, cols []*vector.Column, pos []int, rows [][]int32) *core.FBlock {
	b := ctx.NewFBlock()
	for i, src := range cols {
		col := ctx.Arena.OwnColumn(names[i], src.Kind)
		col.Gather(src, rows[pos[i]])
		b.AddColumn(col)
	}
	return b
}
