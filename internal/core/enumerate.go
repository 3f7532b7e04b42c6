package core

import (
	"fmt"
	"sync"

	"ges/internal/vector"
)

// ColRef addresses one projected attribute inside an f-Tree: the owning
// node's ID and the column's position within that node's block.
type ColRef struct {
	Node int
	Col  int
}

// enumScratch is the reusable per-call state of an enumeration: one backing
// array split into the walk's parent-index / cursor / end stacks.
type enumScratch struct {
	idx []int
}

var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

// cursor returns the walk's three stacks for an n-node tree, zeroed and
// full-length-capped so appends cannot bleed between them.
func (sc *enumScratch) cursor(n int) (parentIdx, cur, end []int) {
	if cap(sc.idx) < 3*n {
		sc.idx = make([]int, 3*n)
	}
	idx := sc.idx[:3*n]
	clear(idx)
	return idx[:n:n], idx[n : 2*n : 2*n], idx[2*n:]
}

// Resolve maps attribute names to ColRefs, failing on unknown names.
func (t *FTree) Resolve(names []string) ([]ColRef, error) {
	refs := make([]ColRef, len(names))
	for i, name := range names {
		n, c := t.FindColumn(name)
		if c == nil {
			return nil, fmt.Errorf("core: no column %q in f-tree (schema %v)", name, t.Schema())
		}
		col := -1
		for j, cc := range n.Block.Columns() {
			if cc == c {
				col = j
				break
			}
		}
		refs[i] = ColRef{Node: n.id, Col: col}
	}
	return refs, nil
}

// Enumerate walks every valid tuple of the relation factorized by the tree
// (R_FT) and calls fn with a reusable row buffer holding the projected
// attributes; fn must copy the buffer if it retains it, and may return false
// to stop enumeration early. The walk is the constant-delay enumeration of
// Lemma 4.4 realized as a preorder backtracking loop: each node's row
// iterator ranges over the index-vector interval selected by its parent's
// current row, so the work per emitted tuple is O(|schema|). It boxes from
// the cursor of EnumerateRows's walk, re-reading only the nodes whose row
// changed.
func (t *FTree) Enumerate(refs []ColRef, fn func(row []vector.Value) bool) {
	cols := make([]*vector.Column, len(refs))
	for i, r := range refs {
		cols[i] = t.nodes[r.Node].Block.Column(r.Col)
	}
	buf := make([]vector.Value, len(refs))
	t.EnumerateRows(func(cur []int, from int) bool {
		for i, r := range refs {
			if r.Node >= from {
				buf[i] = cols[i].Get(cur[r.Node])
			}
		}
		return fn(buf)
	})
}

// EnumerateRows walks the valid tuples in Enumerate's order without boxing
// a value: fn receives the cursor, rows[id] being the current row of the
// node with that ID, and from, the lowest node ID whose row changed since
// the previous tuple (0 for the first). fn must not retain or modify rows,
// and may return false to stop.
func (t *FTree) EnumerateRows(fn func(rows []int, from int) bool) {
	if len(t.nodes) == 0 || t.Root.Block.NumRows() == 0 {
		return
	}
	// The walk's cursor stacks cycle through a package pool, so a warm walk
	// allocates none.
	sc := enumPool.Get().(*enumScratch)
	defer enumPool.Put(sc)
	t.walk(sc, fn)
}

// walk is the constant-delay enumeration of Lemma 4.4 realized as a preorder
// backtracking loop: each node's row iterator ranges over the index-vector
// interval selected by its parent's current row, so the work per tuple is
// O(|nodes|). It emits the cursor at every valid tuple.
func (t *FTree) walk(sc *enumScratch, emit func(cur []int, from int) bool) {
	n := len(t.nodes)
	parentIdx, cur, end := sc.cursor(n)
	for i := 1; i < n; i++ {
		parentIdx[i] = t.nodes[i].Parent.id
	}
	cur[0], end[0] = 0, t.Root.Block.NumRows()
	d, from := 0, 0
	for d >= 0 {
		// Advance node d's iterator to its next valid row.
		node := t.nodes[d]
		r := -1
		if cur[d] < end[d] {
			if s := node.Sel.NextSet(cur[d]); s >= 0 && s < end[d] {
				r = s
			}
		}
		if r < 0 {
			// Exhausted: backtrack and advance the parent level.
			d--
			if d >= 0 {
				cur[d]++
			}
			continue
		}
		cur[d] = r
		from = min(from, d)
		if d == n-1 {
			if !emit(cur, from) {
				return
			}
			from = n
			cur[d]++
			continue
		}
		// Descend: initialize the next node's iterator from its parent's
		// current row.
		d++
		rg := t.nodes[d].Index[cur[parentIdx[d]]]
		cur[d], end[d] = int(rg.Start), int(rg.End)
	}
}

// Defactor materializes the named attributes of every valid tuple into a
// row-oriented FlatBlock, one boxed value per attribute: the reference the
// executor's columnar de-factor and its result boxing are tested against.
func (t *FTree) Defactor(names []string) (*FlatBlock, error) {
	refs, err := t.Resolve(names)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = t.nodes[r.Node].Block.Column(r.Col).Kind
	}
	out := NewFlatBlock(append([]string(nil), names...), kinds)
	t.Enumerate(refs, func(row []vector.Value) bool {
		out.Append(row)
		return true
	})
	return out, nil
}

// DefactorAll materializes every attribute of the tree in preorder schema
// order.
func (t *FTree) DefactorAll() (*FlatBlock, error) {
	return t.Defactor(t.Schema())
}
