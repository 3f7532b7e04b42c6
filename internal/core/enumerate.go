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

// proj pairs a projected column with its slot in the enumeration row buffer.
type proj struct {
	col    *vector.Column
	bufPos int
}

// enumScratch is the reusable per-call state of an enumeration: the
// per-node projection plan and the row buffer EnumerateRange hands its
// callback, and one backing array split into the walk's parent-index /
// cursor / end stacks.
type enumScratch struct {
	projs [][]proj
	idx   []int
	buf   []vector.Value
}

var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

// grow sizes the scratch for an n-node tree projecting cols attributes and
// returns the projection plan and the row buffer.
func (sc *enumScratch) grow(n, cols int) (projs [][]proj, buf []vector.Value) {
	if cap(sc.projs) < n {
		sc.projs = make([][]proj, n)
	}
	sc.projs = sc.projs[:n]
	if cap(sc.buf) < cols {
		sc.buf = make([]vector.Value, cols)
	}
	sc.buf = sc.buf[:cols]
	return sc.projs, sc.buf
}

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

// release drops every column and value reference the scratch picked up — so
// a pooled scratch never pins graph or intermediate memory — and returns it
// to the pool. Both slices are cut to what this call used (grow), so the
// sweep follows this tree's width, not the widest tree the scratch has seen.
func (sc *enumScratch) release() {
	for i := range sc.projs {
		clear(sc.projs[i])
		sc.projs[i] = sc.projs[i][:0]
	}
	clear(sc.buf)
	enumPool.Put(sc)
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
// current row, so the work per emitted tuple is O(|schema|).
func (t *FTree) Enumerate(refs []ColRef, fn func(row []vector.Value) bool) {
	t.EnumerateRange(refs, 0, t.Root.Block.NumRows(), fn)
}

// EnumerateRange is Enumerate restricted to root rows [lo,hi). Tuples are
// produced in the same order Enumerate would produce them, so enumerating
// consecutive ranges and concatenating yields exactly the full enumeration —
// the property the morsel-parallel de-factoring relies on. It boxes from the
// cursor of EnumerateRows's walk, re-reading only the nodes whose row changed.
func (t *FTree) EnumerateRange(refs []ColRef, lo, hi int, fn func(row []vector.Value) bool) {
	n := len(t.nodes)
	if n == 0 || t.Root.Block.NumRows() == 0 || lo >= hi {
		return
	}
	// The walk's per-call scratch (cursor stacks, projection plan, row
	// buffer) cycles through a package pool so steady-state enumeration —
	// one call per aggregate or de-factor morsel — allocates nothing. The
	// pool (not the tree) carries the scratch because parallel de-factoring
	// enumerates disjoint ranges of one tree concurrently.
	sc := enumPool.Get().(*enumScratch)
	defer sc.release()
	projs, buf := sc.grow(n, len(refs))
	for pos, r := range refs {
		projs[r.Node] = append(projs[r.Node], proj{col: t.nodes[r.Node].Block.Column(r.Col), bufPos: pos})
	}
	sc.projs = projs // retain any inner-slice growth for reuse
	t.walk(sc, lo, hi, func(cur []int, from int) bool {
		for d := from; d < n; d++ {
			for _, p := range projs[d] {
				buf[p.bufPos] = p.col.Get(cur[d])
			}
		}
		return fn(buf)
	})
}

// EnumerateRows walks the valid tuples of root rows [lo,hi) in Enumerate's
// order without boxing a value: fn receives the cursor, rows[id] being the
// current row of the node with that ID, and from, the lowest node ID whose
// row changed since the previous tuple (0 for the first). fn must not retain
// or modify rows, and may return false to stop.
func (t *FTree) EnumerateRows(lo, hi int, fn func(rows []int, from int) bool) {
	if len(t.nodes) == 0 || t.Root.Block.NumRows() == 0 || lo >= hi {
		return
	}
	sc := enumPool.Get().(*enumScratch)
	defer sc.release()
	sc.grow(0, 0) // nothing projected: release has nothing to sweep
	t.walk(sc, lo, hi, fn)
}

// walk is the constant-delay enumeration of Lemma 4.4 realized as a preorder
// backtracking loop: each node's row iterator ranges over the index-vector
// interval selected by its parent's current row, so the work per tuple is
// O(|nodes|). It emits the cursor at every valid tuple.
func (t *FTree) walk(sc *enumScratch, lo, hi int, emit func(cur []int, from int) bool) {
	n := len(t.nodes)
	parentIdx, cur, end := sc.cursor(n)
	for i := 1; i < n; i++ {
		parentIdx[i] = t.nodes[i].Parent.id
	}
	cur[0], end[0] = lo, hi
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
// row-oriented FlatBlock — the "ultimate solution" the executor reverts to
// for complex blocking logic (§4.2, Flat-Block).
func (t *FTree) Defactor(names []string) (*FlatBlock, error) {
	return t.DefactorRange(names, 0, t.Root.Block.NumRows())
}

// DefactorRange materializes the named attributes of every valid tuple whose
// root row falls in [lo,hi). Concatenating the blocks of consecutive ranges
// reproduces Defactor exactly (see EnumerateRange) — the building block of
// morsel-parallel de-factoring.
func (t *FTree) DefactorRange(names []string, lo, hi int) (*FlatBlock, error) {
	refs, err := t.Resolve(names)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = t.nodes[r.Node].Block.Column(r.Col).Kind
	}
	out := NewFlatBlock(append([]string(nil), names...), kinds)
	t.EnumerateRange(refs, lo, hi, func(row []vector.Value) bool {
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

// Chunk is the intermediate-result currency flowing between operators: it
// holds either a factorized tree or a flat block. Operators prefer the
// factorized branch; the first operator needing global cross-node state
// de-factors, and all downstream operators run block-based — the paper's
// "seamlessly reverts to block-based execution" (§4).
type Chunk struct {
	FT   *FTree
	Flat *FlatBlock
}

// IsFlat reports whether the chunk is in the flat representation.
func (c *Chunk) IsFlat() bool { return c.Flat != nil }

// MemBytes returns the accounted memory of whichever representation the
// chunk holds; the executor samples this after every operator to report the
// peak intermediate size (Table 2).
func (c *Chunk) MemBytes() int {
	n := 0
	if c.FT != nil {
		n += c.FT.MemBytes()
	}
	if c.Flat != nil {
		n += c.Flat.MemBytes()
	}
	return n
}
