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
// R_FT the row takes part in: down × up. One bottom-up ("down") pass over
// every node but node's ancestors counts each row's subtree — the product,
// over its children, of the counts in its index-vector ranges; the top-down
// ("up") pass runs only along the path from the root to node, carrying the
// product of the rest of the tree. A root row's up is 1, so the root's
// weights (a root row's tuple count, COUNT(*)) cost the bottom-up pass
// alone. An invalid row weighs 0.
//
// The counts live in *scratch, grown as needed and recycled by the caller;
// the returned weights alias it.
func (t *FTree) Weights(node *Node, scratch *[]int64) []int64 {
	nodes := t.nodes
	// One backing array holds every node's down counts and the up counts of
	// the path to node; small trees keep the per-node views on the stack.
	var views [8][]int64
	down := views[:0]
	if len(nodes) > len(views) {
		down = make([][]int64, 0, len(nodes))
	}
	// node's strict ancestors need no down counts: the up pass reads those
	// of node and of the siblings along its path only.
	ancestor := func(nd *Node) bool {
		for n := node.Parent; n != nil; n = n.Parent {
			if n == nd {
				return true
			}
		}
		return false
	}
	total := t.Root.Block.NumRows()
	for _, nd := range nodes {
		if !ancestor(nd) {
			total += nd.Block.NumRows()
		}
	}
	for n := node; n.Parent != nil; n = n.Parent {
		total += n.Block.NumRows()
	}
	buf := slices.Grow((*scratch)[:0], total)[:total]
	clear(buf)
	*scratch = buf
	for _, nd := range nodes {
		n := nd.Block.NumRows()
		if ancestor(nd) {
			n = 0
		}
		down, buf = append(down, buf[:n:n]), buf[n:]
	}
	// Bottom-up: children have larger IDs than parents (preorder append).
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := nodes[i]
		d := down[i]
		for r := range d {
			if !nd.Sel.Get(r) {
				continue
			}
			prod := int64(1)
			for _, c := range nd.Children {
				if prod == 0 {
					break
				}
				prod *= rangeSum(down[c.id], c.Index[r])
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
		if t.Root.Sel.Get(r) {
			up[r] = 1
		}
	}
	for k := len(path) - 1; k >= 0; k-- {
		c := path[k]
		p := c.Parent
		next := buf[:c.Block.NumRows()]
		buf = buf[len(next):]
		for r, u := range up {
			// Only valid parent rows extend tuples downward: up may be
			// positive for rows the selection vector has since invalidated.
			if u == 0 || !p.Sel.Get(r) {
				continue
			}
			for _, s := range p.Children {
				if s != c {
					if u *= rangeSum(down[s.id], s.Index[r]); u == 0 {
						break
					}
				}
			}
			if u == 0 {
				continue
			}
			rg := c.Index[r]
			for j := rg.Start; j < rg.End; j++ {
				next[j] = u
			}
		}
		up = next
	}
	for r := range w {
		w[r] *= up[r]
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
