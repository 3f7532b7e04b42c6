package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ges/internal/vector"
)

// randomTree builds a random f-Tree: random topology, random row counts,
// random selection vectors, and index vectors that partition each child's
// rows into consecutive (possibly empty) per-parent ranges — the invariant
// Expand maintains.
func randomTree(rng *rand.Rand) *FTree {
	nNodes := 1 + rng.Intn(5)
	colID := 0
	makeBlock := func(rows int) *FBlock {
		nCols := 1 + rng.Intn(2)
		cols := make([]*vector.Column, nCols)
		for c := 0; c < nCols; c++ {
			col := vector.NewColumn(fmt.Sprintf("c%d", colID), vector.KindInt64)
			colID++
			for r := 0; r < rows; r++ {
				col.AppendInt64(int64(rng.Intn(50)))
			}
			cols[c] = col
		}
		return NewFBlock(cols...)
	}
	rootRows := 1 + rng.Intn(4)
	ft := NewFTree(makeBlock(rootRows))
	nodes := []*Node{ft.Root}
	for len(ft.Nodes()) < nNodes {
		parent := nodes[rng.Intn(len(nodes))]
		pRows := parent.Block.NumRows()
		// Partition child rows into consecutive ranges per parent row.
		index := make([]Range, pRows)
		total := int32(0)
		for i := 0; i < pRows; i++ {
			span := int32(rng.Intn(4)) // may be 0 (no extension)
			index[i] = Range{Start: total, End: total + span}
			total += span
		}
		child := ft.AddChild(parent, makeBlock(int(total)), index)
		nodes = append(nodes, child)
	}
	// Random selection vectors.
	for _, n := range ft.Nodes() {
		for r := 0; r < n.Block.NumRows(); r++ {
			if rng.Intn(4) == 0 {
				n.Sel.Clear(r)
			}
		}
	}
	return ft
}

// bruteForce materializes R_FT directly from equations (1) and (2) of the
// paper by naive recursion, independent of the enumerator's logic.
func bruteForce(ft *FTree) [][]vector.Value {
	var rec func(n *Node, row int) [][]vector.Value
	rec = func(n *Node, row int) [][]vector.Value {
		if !n.Sel.Get(row) {
			return nil
		}
		result := [][]vector.Value{n.Block.Tuple(row)}
		for _, c := range n.Children {
			rg := c.Index[row]
			var childTuples [][]vector.Value
			for j := rg.Start; j < rg.End; j++ {
				childTuples = append(childTuples, rec(c, int(j))...)
			}
			if len(childTuples) == 0 {
				return nil // empty factor annihilates the product
			}
			var product [][]vector.Value
			for _, left := range result {
				for _, right := range childTuples {
					row := append(append([]vector.Value(nil), left...), right...)
					product = append(product, row)
				}
			}
			result = product
		}
		return result
	}
	var out [][]vector.Value
	for r := 0; r < ft.Root.Block.NumRows(); r++ {
		out = append(out, rec(ft.Root, r)...)
	}
	// The recursion assembles columns in tree preorder; the tree's schema
	// (and the enumerator) use node-registry order. Permute to match.
	var preorder []string
	var walk func(n *Node)
	walk = func(n *Node) {
		preorder = append(preorder, n.Block.Schema()...)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ft.Root)
	schema := ft.Schema()
	perm := make([]int, len(schema))
	for i, name := range schema {
		for j, p := range preorder {
			if p == name {
				perm[i] = j
				break
			}
		}
	}
	for i, row := range out {
		nr := make([]vector.Value, len(perm))
		for k, j := range perm {
			nr[k] = row[j]
		}
		out[i] = nr
	}
	return out
}

func tupleKey(row []vector.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func sortedKeys(rows [][]vector.Value) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = tupleKey(r)
	}
	sort.Strings(keys)
	return keys
}

// checkRowsAbove holds Node.RowsAbove to the enumeration: in every tuple
// EnumerateRows yields, each node's row maps to the row its ancestors hold
// (itself included), and every row of a child maps to the parent row whose
// index-vector range holds it. dst starts as garbage of a varying capacity.
func checkRowsAbove(t *testing.T, trial int, ft *FTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	nodes := ft.Nodes()
	maps := make([][][]int32, len(nodes)) // maps[n][a]: n's rows to a's
	for _, n := range nodes {
		maps[n.ID()] = make([][]int32, len(nodes))
		for a := n; a != nil; a = a.Parent {
			dst := make([]int32, rng.Intn(2*n.Block.NumRows()+1))
			for i := range dst {
				dst[i] = -7
			}
			maps[n.ID()][a.ID()] = n.RowsAbove(a, dst)
		}
		if n.Parent == nil {
			continue
		}
		up := maps[n.ID()][n.Parent.ID()]
		for pr, rg := range n.Index {
			for j := rg.Start; j < rg.End; j++ {
				if up[j] != int32(pr) {
					t.Fatalf("trial %d: node %d row %d maps to parent row %d, its range is parent row %d's", trial, n.ID(), j, up[j], pr)
				}
			}
		}
	}
	ft.EnumerateRows(0, ft.Root.Block.NumRows(), func(cur []int, _ int) bool {
		for _, n := range nodes {
			for a := n; a != nil; a = a.Parent {
				if got := maps[n.ID()][a.ID()][cur[n.ID()]]; got != int32(cur[a.ID()]) {
					t.Fatalf("trial %d: node %d row %d maps to row %d of node %d, the tuple holds row %d", trial, n.ID(), cur[n.ID()], got, a.ID(), cur[a.ID()])
				}
			}
		}
		return true
	})
}

// The central invariant of the paper's data structure: enumeration of the
// factorized representation is lossless — it yields exactly the relation a
// naive expansion of Union/Cartesian-product semantics defines.
func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		ft := randomTree(rng)
		want := bruteForce(ft)
		checkRowsAbove(t, trial, ft)

		fb, err := ft.DefactorAll()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, wantN := int64(fb.NumRows()), int64(len(want)); got != wantN {
			t.Fatalf("trial %d: enumerated %d tuples, brute force %d\n%s", trial, got, wantN, ft)
		}
		if got := ft.CountTuples(); got != int64(len(want)) {
			t.Fatalf("trial %d: CountTuples = %d, brute force %d", trial, got, len(want))
		}
		gotKeys := sortedKeys(fb.Rows)
		wantKeys := sortedKeys(want)
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("trial %d: tuple multiset mismatch at %d:\n got %q\nwant %q", trial, i, gotKeys[i], wantKeys[i])
			}
		}
	}
}

// Projection through Enumerate must agree with projecting the brute-force
// relation (bag semantics).
func TestEnumerateProjectionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		ft := randomTree(rng)
		schema := ft.Schema()
		// Project a random non-empty subset of attributes.
		var proj []string
		for _, s := range schema {
			if rng.Intn(2) == 0 {
				proj = append(proj, s)
			}
		}
		if len(proj) == 0 {
			proj = schema[:1]
		}
		fb, err := ft.Defactor(proj)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force, then project.
		full := bruteForce(ft)
		pos := make([]int, len(proj))
		for i, p := range proj {
			for j, s := range schema {
				if s == p {
					pos[i] = j
					break
				}
			}
		}
		want := make([][]vector.Value, len(full))
		for i, row := range full {
			pr := make([]vector.Value, len(pos))
			for k, j := range pos {
				pr[k] = row[j]
			}
			want[i] = pr
		}
		gotKeys := sortedKeys(fb.Rows)
		wantKeys := sortedKeys(want)
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("trial %d: projected cardinality %d, want %d", trial, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("trial %d: projected multiset mismatch at %d", trial, i)
			}
		}
	}
}

// Enumeration delay sanity: the enumerator allocates nothing per tuple
// beyond the shared row buffer (constant-delay in practice).
func TestEnumerateReusesRowBuffer(t *testing.T) {
	ft := figure7Tree()
	refs, _ := ft.Resolve(ft.Schema())
	var first []vector.Value
	calls := 0
	ft.Enumerate(refs, func(row []vector.Value) bool {
		if calls == 0 {
			first = row
		} else if &row[0] != &first[0] {
			t.Fatal("enumerator must reuse one row buffer")
		}
		calls++
		return true
	})
	if calls != 3 {
		t.Fatalf("visited %d tuples, want 3", calls)
	}
}
