package op

import (
	"fmt"
	"slices"

	"ges/internal/core"
	"ges/internal/vector"
)

// childCols names the columns of the f-Tree node a producer adds: the new
// variable's VID column and one column per projected edge property.
type childCols struct {
	to    string
	props []EdgeProj
	kinds []vector.Kind
}

// childSink is where a producer writes the node it adds: children append to
// toCol (edge properties to propCols in step), and index[i] receives parent
// row i's child range.
type childSink struct {
	toCol    *vector.Column
	propCols []*vector.Column
	index    []core.Range
}

// produceChild runs fill over every row of parent and hangs the result under
// it as a new node. The index vector and the columns land in the new node,
// so they are query-lifetime arena memory, released wholesale when the
// engine ends the query.
func produceChild(ctx *Ctx, ft *core.FTree, parent *core.Node, cols childCols, fill func(s childSink)) *core.FTree {
	s := childSink{
		index:    ctx.Arena.OwnRanges(parent.Block.NumRows()),
		toCol:    ctx.Arena.OwnColumn(cols.to, vector.KindVID),
		propCols: make([]*vector.Column, len(cols.props)),
	}
	for p, ep := range cols.props {
		s.propCols[p] = ctx.Arena.OwnColumn(ep.As, cols.kinds[p])
	}
	fill(s)
	block := ctx.NewFBlock(s.toCol)
	for _, pc := range s.propCols {
		block.AddColumn(pc)
	}
	ft.AddChild(parent, block, s.index)
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
// t, in enumeration order (FTree.EnumerateRows). The caller returns the rows
// with putRows.
func tupleRows(ctx *Ctx, ft *core.FTree, nodes []int) [][]int32 {
	n := ft.Root.Block.NumRows()
	rows := make([][]int32, len(nodes))
	for k := range rows {
		rows[k] = ctx.Arena.GetInt32s(n)
	}
	appendTuples(ft, nodes, 0, -1, rows)
	return rows
}

// appendTuples appends to rows[k] node nodes[k]'s row in each valid tuple
// of ft, after skipping skip tuples and up to limit tuples (every one when
// limit < 0), and returns the tuples it appended.
func appendTuples(ft *core.FTree, nodes []int, skip, limit int, rows [][]int32) (n int) {
	if limit == 0 {
		return 0
	}
	ft.EnumerateRows(func(cur []int, _ int) bool {
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
