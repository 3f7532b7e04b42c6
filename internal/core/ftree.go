package core

import (
	"fmt"
	"slices"
	"strings"

	"ges/internal/vector"
)

// Range is one entry of an index vector: the half-open child-row interval
// [Start, End) that belongs to a single parent row. An empty interval
// (Start == End) means the parent row has no extension in the child.
type Range struct {
	Start, End int32
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return int(r.End - r.Start) }

// Node is one node of an f-Tree (§4.2): an f-Block, a selection vector over
// its rows, and — unless it is the root — the index vector of the edge from
// its parent, mapping every parent row to a contiguous range of this node's
// rows (the Cartesian-product relationship).
type Node struct {
	Block *FBlock
	Sel   *vector.Bitset

	Parent   *Node
	Children []*Node

	// Index is the index vector I(parent,this): Index[i] is the row range
	// of this node belonging to parent row i. nil for the root.
	Index []Range

	id int // position in the tree's preorder registry
}

// ID returns the node's stable identifier within its tree.
func (n *Node) ID() int { return n.id }

// Valid reports whether row i of the node passes its selection vector.
func (n *Node) Valid(i int) bool { return n.Sel.Get(i) }

// FTree is the practical factorization tree of §4.2. It owns a preorder
// registry of its nodes (parents before children) which both the operators
// and the constant-delay enumerator walk.
type FTree struct {
	Root  *Node
	nodes []*Node

	// spare holds Node structs retired by Reset; AddChild reuses them —
	// including their selection-vector word capacity — so a recycled tree
	// regrows without re-allocating per-node state (§5, pre-allocated
	// reusable f-Trees).
	spare []*Node
}

// NewFTree creates a tree whose root holds the given block; all root rows
// start valid.
func NewFTree(rootBlock *FBlock) *FTree {
	root := &Node{Block: rootBlock, Sel: vector.NewBitset(rootBlock.NumRows())}
	return &FTree{Root: root, nodes: []*Node{root}}
}

// AddChild attaches a new node under parent with its block and the index
// vector of the connecting edge. len(index) must equal the parent block's
// cardinality. Each Expand adds one node this way, progressively growing the
// tree (§4.3, Expand).
func (t *FTree) AddChild(parent *Node, block *FBlock, index []Range) *Node {
	if len(index) != parent.Block.NumRows() {
		panic(fmt.Sprintf("core: index vector length %d != parent cardinality %d",
			len(index), parent.Block.NumRows()))
	}
	var n *Node
	if k := len(t.spare); k > 0 {
		n = t.spare[k-1]
		t.spare[k-1] = nil
		t.spare = t.spare[:k-1]
		n.Sel.Reinit(block.NumRows(), true)
		n.Block, n.Parent, n.Index = block, parent, index
	} else {
		n = &Node{
			Block:  block,
			Sel:    vector.NewBitset(block.NumRows()),
			Parent: parent,
			Index:  index,
		}
	}
	n.id = len(t.nodes)
	parent.Children = append(parent.Children, n)
	t.nodes = append(t.nodes, n)
	return n
}

// Reset re-roots the tree over rootBlock, retiring every non-root node into
// the spare list for AddChild to reuse. Block and index-vector references are
// dropped (their memory belongs to the query arena, not the tree); selection
// bitsets stay attached to the retired nodes so their word storage is
// recycled. A root-only tree over rootBlock with all rows valid remains —
// the state NewFTree would produce, minus the allocations.
func (t *FTree) Reset(rootBlock *FBlock) {
	for _, n := range t.nodes[1:] {
		n.Block, n.Parent, n.Index = nil, nil, nil
		n.Children = n.Children[:0]
		t.spare = append(t.spare, n)
	}
	clear(t.nodes[1:])
	t.nodes = t.nodes[:1]
	root := t.nodes[0]
	root.Block = rootBlock
	root.Children = root.Children[:0]
	root.Index = nil
	root.Sel.Reinit(rootBlock.NumRows(), true)
	t.Root = root
}

// Nodes returns the preorder node registry (parents precede children).
func (t *FTree) Nodes() []*Node { return t.nodes }

// NumNodes returns the number of nodes.
func (t *FTree) NumNodes() int { return len(t.nodes) }

// FindColumn locates the unique node and column holding attribute name. The
// disjoint-schema-partition property guarantees at most one owner.
func (t *FTree) FindColumn(name string) (*Node, *vector.Column) {
	for _, n := range t.nodes {
		if c := n.Block.ColumnByName(name); c != nil {
			return n, c
		}
	}
	return nil, nil
}

// Schema returns the union of all node schemas — S(R_FT).
func (t *FTree) Schema() []string {
	var out []string
	for _, n := range t.nodes {
		out = append(out, n.Block.Schema()...)
	}
	return out
}

// NodeOfColumns returns the single node owning every name in names, or nil
// when the names span multiple nodes. Order-By / Group-By use this to decide
// between factorized handling and de-factoring (§4.3).
func (t *FTree) NodeOfColumns(names []string) *Node {
	var owner *Node
	for _, name := range names {
		n, c := t.FindColumn(name)
		if c == nil {
			return nil
		}
		if owner == nil {
			owner = n
		} else if owner != n {
			return nil
		}
	}
	return owner
}

// CountTuples returns the number of valid tuples encoded by the tree — the
// cardinality of R_FT — without enumerating them: the sum of the root's
// Weights.
func (t *FTree) CountTuples() int64 {
	total := int64(0)
	for _, c := range t.Weights(t.Root, new([]int64)) {
		total += c
	}
	return total
}

// Weights returns, for every row of node, the number of valid full tuples of
// R_FT the row takes part in: down × up. A row's down count is the product,
// over its node's children, of the counts in its index-vector ranges; its up
// count is the product, along the path from the root, of the ranges of the
// path's siblings. A leaf's count over a range is its number of valid rows
// there, read off the selection vector, so the bottom-up ("down") pass runs
// only over node and the nodes with children off the root-to-node path; the
// top-down ("up") pass runs only along the path and multiplies into node's
// rows at its last step. When no node off the path has a child and node is
// a leaf (IC5's forums), there is no down pass: a row's weight is its
// ancestors' up count, or 0 when the row is invalid. A root row's up is 1,
// so the root's weights (a root row's tuple count, COUNT(*)) cost the down
// pass alone.
//
// The counts live in *scratch, grown as needed and recycled by the caller;
// the returned weights alias it.
func (t *FTree) Weights(node *Node, scratch *[]int64) []int64 {
	nodes := t.nodes
	// One backing array holds the down counts and the up counts of the path
	// to node; small trees keep the per-node views on the stack.
	var views [8][]int64
	down := views[:0]
	if len(nodes) > len(views) {
		down = make([][]int64, 0, len(nodes))
	}
	// node's strict ancestors need no down counts: the up pass reads those
	// of the siblings along its path only.
	ancestor := func(nd *Node) bool {
		for n := node.Parent; n != nil; n = n.Parent {
			if n == nd {
				return true
			}
		}
		return false
	}
	counted := func(nd *Node) bool { return nd == node || (len(nd.Children) > 0 && !ancestor(nd)) }
	total := 0
	for _, nd := range nodes {
		if counted(nd) || ancestor(nd) {
			total += nd.Block.NumRows()
		}
	}
	buf := slices.Grow((*scratch)[:0], total)[:total]
	*scratch = buf
	for _, nd := range nodes {
		n := 0
		if counted(nd) {
			n = nd.Block.NumRows()
		}
		down, buf = append(down, buf[:n:n]), buf[n:]
	}
	count := func(c *Node, rg Range) int64 {
		if len(c.Children) == 0 {
			return int64(c.Sel.CountRange(int(rg.Start), int(rg.End)))
		}
		return rangeSum(down[c.id], rg)
	}
	leaf := len(node.Children) == 0 && node != t.Root
	// Bottom-up: children have larger IDs than parents (preorder append).
	// A leaf node's rows are weighed by the up pass alone.
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := nodes[i]
		if !counted(nd) || (nd == node && leaf) {
			continue
		}
		d := down[i]
		for r := range d {
			prod := int64(0)
			if nd.Sel.Get(r) {
				prod = 1
				for _, c := range nd.Children {
					if prod *= count(c, c.Index[r]); prod == 0 {
						break
					}
				}
			}
			d[r] = prod
		}
	}
	w := down[node.id]
	if node == t.Root {
		return w // down is already zero for invalid rows
	}
	var path []*Node
	for n := node; n.Parent != nil; n = n.Parent {
		path = append(path, n)
	}
	up, buf := buf[:t.Root.Block.NumRows()], buf[t.Root.Block.NumRows():]
	for r := range up {
		up[r] = 1
	}
	// Every child row lies in exactly one parent row's range (the index
	// vector is contiguous and covers the block), so each level writes
	// every row of the next.
	for k := len(path) - 1; k >= 0; k-- {
		c := path[k]
		p := c.Parent
		next := w // the last level writes a leaf node's weights
		if k > 0 {
			next, buf = buf[:c.Block.NumRows()], buf[c.Block.NumRows():]
		}
		for r, u := range up {
			// Only valid parent rows extend tuples downward: up may be
			// positive for rows the selection vector has since invalidated.
			if u != 0 && !p.Sel.Get(r) {
				u = 0
			}
			for _, s := range p.Children {
				if u == 0 {
					break
				}
				if s != c {
					u *= count(s, s.Index[r])
				}
			}
			rg := c.Index[r]
			if k > 0 || leaf {
				for j := rg.Start; j < rg.End; j++ {
					next[j] = u
				}
			} else {
				for j := rg.Start; j < rg.End; j++ {
					w[j] *= u
				}
			}
		}
		up = next
	}
	if leaf {
		node.Sel.Mask(w) // an invalid row weighs 0
	}
	return w
}

// rangeSum adds the weights of one index-vector range.
func rangeSum(w []int64, rg Range) int64 {
	var s int64
	for _, x := range w[rg.Start:rg.End] {
		s += x
	}
	return s
}

// PruneUp clears the selection bit of every row (bottom-up from the given
// node) whose child ranges retain no valid row, so upstream operators skip
// dead subtrees early. It is an optimization; enumeration is correct without
// it.
func (t *FTree) PruneUp(from *Node) {
	for n := from; n != nil && n.Parent != nil; n = n.Parent {
		p := n.Parent
		changed := false
		for i := 0; i < p.Block.NumRows(); i++ {
			if !p.Sel.Get(i) {
				continue
			}
			rg := n.Index[i]
			hasValid := false
			for j := rg.Start; j < rg.End; j++ {
				if n.Sel.Get(int(j)) {
					hasValid = true
					break
				}
			}
			if !hasValid {
				p.Sel.Clear(i)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// MemBytes returns the accounted intermediate-result memory of the tree:
// blocks, selection vectors and index vectors. This is the quantity Table 2
// of the paper reports.
func (t *FTree) MemBytes() int {
	n := 64
	for _, nd := range t.nodes {
		n += nd.Block.MemBytes()
		n += nd.Sel.MemBytes()
		n += len(nd.Index) * 8
		n += 96 // node struct overhead
	}
	return n
}

// String renders the tree structure for debugging.
func (t *FTree) String() string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "%s valid=%d/%d\n", n.Block, n.Sel.Count(), n.Block.NumRows())
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}
