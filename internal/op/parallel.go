package op

import (
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
// produceChild for operators that grow the f-Tree by one node, produceFlat
// for operators that emit flat rows.

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
func produceChild[B childBody](ctx *Ctx, ft *core.FTree, parent *core.Node, cols childCols, body B) *core.Chunk {
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
	return ctx.FTChunk(ft)
}

// flatBody is the range body of an operator that emits flat rows: the rows
// produced from input rows [lo,hi), appended to out in input order.
type flatBody interface {
	rows(lo, hi int, out *core.FlatBlock)
}

// produceFlat runs body over n input rows into a block of the given schema,
// concatenating per-morsel blocks in morsel order. Row limits are the
// caller's single check on the merged block.
func produceFlat[B flatBody](ctx *Ctx, n, size int, names []string, kinds []vector.Kind, body B) *core.FlatBlock {
	out := core.NewFlatBlock(names, kinds)
	if k := ctx.shards(n, size); k == 1 {
		body.rows(0, n, out)
	} else {
		body := body // as in produceChild
		shards := make([]*core.FlatBlock, k)
		ctx.RunMorsels(n, size, func(m sched.Morsel) {
			shards[m.Index] = core.NewFlatBlock(names, kinds)
			body.rows(m.Start, m.End, shards[m.Index])
		})
		for _, sh := range shards {
			out.Rows = append(out.Rows, sh.Rows...)
		}
	}
	return out
}

// defactorBody enumerates the tuples under root rows [lo,hi). Consecutive
// ranges concatenate to the full enumeration (core.EnumerateRange).
type defactorBody struct {
	ft   *core.FTree
	refs []core.ColRef
}

func (b defactorBody) rows(lo, hi int, out *core.FlatBlock) {
	b.ft.EnumerateRange(b.refs, lo, hi, func(row []vector.Value) bool {
		out.Append(row)
		return true
	})
}

// DefactorNames materializes the named attributes (the full schema when
// names is nil) of every valid tuple — FTree.Defactor, driven by root-row
// range.
func DefactorNames(ctx *Ctx, ft *core.FTree, names []string) (*core.FlatBlock, error) {
	if names == nil {
		names = ft.Schema()
	}
	refs, err := ft.Resolve(names)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = ft.Nodes()[r.Node].Block.Column(r.Col).Kind
	}
	return produceFlat(ctx, ft.Root.Block.NumRows(), expandMorselSize,
		append([]string(nil), names...), kinds, defactorBody{ft, refs}), nil
}

// DefactorAll materializes every attribute of the tree.
func DefactorAll(ctx *Ctx, ft *core.FTree) (*core.FlatBlock, error) {
	return DefactorNames(ctx, ft, nil)
}
