package op

import (
	"fmt"
	"strings"

	"ges/internal/core"
	"ges/internal/vector"
)

// PatternCount is Cypher's COUNT { pattern }: it gives every row of From's
// node an int64 column As, the number of matches of Path from that row. A
// row with no match keeps its row, with count 0, so the pattern extends the
// tree as an optional edge would, without multiplying its tuples — the
// correlated counts a flat plan computes in side traversals and joins back.
//
// Path runs once, over a one-level tree whose root rows are the valid rows
// of From's node: each binds From, the other columns of its node, and the
// columns of the nodes above it, read at the row's ancestor. Path may read
// those, and no columns of other branches. A root row's count is its number
// of tuples in the grown tree (its FTree.Weights).
type PatternCount struct {
	From string
	Path []Operator
	As   string
}

// Name implements Operator.
func (o *PatternCount) Name() string {
	names := make([]string, len(o.Path))
	for i, p := range o.Path {
		names[i] = p.Name()
	}
	return "PatternCount(" + o.As + ": " + strings.Join(names, " -> ") + ")"
}

// Execute implements Operator.
func (o *PatternCount) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	node, _, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	root, bound := nodeRoot(ctx, node)
	pt := ctx.Arena.OwnFTree(root)
	out, err := RunPlan(ctx, pt, o.Path)
	if err != nil {
		return nil, fmt.Errorf("pattern count %s: %w", o.As, err)
	}
	if out != pt {
		return nil, fmt.Errorf("op: pattern count %s: the path de-factored its tree", o.As)
	}
	buf := weightBufs.Get().(*[]int64)
	defer weightBufs.Put(buf)
	counts := pt.Weights(pt.Root, buf)
	col := ctx.Arena.OwnColumn(o.As, vector.KindInt64)
	col.Grow(node.Block.NumRows())
	vals := col.Int64s()
	for k, r := range bound {
		vals[r] = counts[k]
	}
	node.Block.AddColumn(col)
	assertFTree(ft)
	return ft, nil
}

// nodeRoot returns the root block of node's pattern tree and the row of node
// each root row binds: one root row per valid row of node, holding the
// columns of node and of every node above it, each gathered at the row's
// ancestor (vector.Column.Gather).
func nodeRoot(ctx *Ctx, node *core.Node) (*core.FBlock, []int32) {
	var bound []int32
	for i := range node.Block.NumRows() {
		if node.Valid(i) {
			bound = append(bound, int32(i))
		}
	}
	b := ctx.NewFBlock()
	rows := append(ctx.Arena.GetInt32s(len(bound)), bound...) // the rows of c
	defer ctx.Arena.PutInt32s(rows)
	for c := node; ; c = c.Parent {
		for _, src := range c.Block.Columns() {
			col := ctx.Arena.OwnColumn(src.Name, src.Kind)
			col.Gather(src, rows)
			b.AddColumn(col)
		}
		if c.Parent == nil {
			return b, bound
		}
		up := c.RowsAbove(c.Parent, ctx.Arena.GetInt32s(c.Block.NumRows()))
		for i, r := range rows {
			rows[i] = up[r]
		}
		ctx.Arena.PutInt32s(up)
	}
}
