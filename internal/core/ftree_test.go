package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ges/internal/vector"
)

// figure7Tree builds the exact f-Tree of the paper's Example 4.2 / Figure 7:
//
//	root r: pId = [p1, p2]
//	child u: (comId, comLen) = [(c1,6),(c2,9),(c3,5),(c4,7)], rows 2,4 invalid
//	         index I(r,u): p1 -> [0,2), p2 -> [2,4)
//	child v: (postId, postLen) = [(m1,140),(m2,123),(m3,120)]
//	         index I(r,v): p1 -> [0,1), p2 -> [1,3)
func figure7Tree() *FTree {
	pid := vector.NewColumn("pId", vector.KindInt64)
	pid.AppendInt64(1)
	pid.AppendInt64(2)
	ft := NewFTree(NewFBlock(pid))

	comID := vector.NewColumn("comId", vector.KindInt64)
	comLen := vector.NewColumn("comLen", vector.KindInt64)
	for _, row := range [][2]int64{{1, 6}, {2, 9}, {3, 5}, {4, 7}} {
		comID.AppendInt64(row[0])
		comLen.AppendInt64(row[1])
	}
	u := ft.AddChild(ft.Root, NewFBlock(comID, comLen), []Range{{0, 2}, {2, 4}})
	u.Sel.Clear(1) // c2 invalid
	u.Sel.Clear(3) // c4 invalid

	postID := vector.NewColumn("postId", vector.KindInt64)
	postLen := vector.NewColumn("postLen", vector.KindInt64)
	for _, row := range [][2]int64{{1, 140}, {2, 123}, {3, 120}} {
		postID.AppendInt64(row[0])
		postLen.AppendInt64(row[1])
	}
	ft.AddChild(ft.Root, NewFBlock(postID, postLen), []Range{{0, 1}, {1, 3}})
	return ft
}

func TestFigure7CountTuples(t *testing.T) {
	ft := figure7Tree()
	// Example 4.2: R_FT encodes exactly 3 valid tuples.
	if got := ft.CountTuples(); got != 3 {
		t.Fatalf("CountTuples = %d, want 3 (paper Example 4.2)", got)
	}
}

func TestFigure7Enumerate(t *testing.T) {
	ft := figure7Tree()
	fb, err := ft.Defactor([]string{"pId", "comId", "comLen", "postId", "postLen"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		{1, 1, 6, 1, 140},
		{2, 3, 5, 2, 123},
		{2, 3, 5, 3, 120},
	}
	if fb.NumRows() != len(want) {
		t.Fatalf("defactor produced %d rows, want %d\n%s", fb.NumRows(), len(want), fb)
	}
	for i, w := range want {
		for j, val := range w {
			if fb.Rows[i][j].I != val {
				t.Fatalf("row %d col %d = %v, want %d", i, j, fb.Rows[i][j], val)
			}
		}
	}
}

func TestFigure7DisjointSchemaPartition(t *testing.T) {
	ft := figure7Tree()
	// Example 4.3: node schemas are pairwise disjoint and cover the full
	// relation schema.
	want := []string{"pId", "comId", "comLen", "postId", "postLen"}
	if got := ft.Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schema = %v, want %v", got, want)
	}
	seen := map[string]int{}
	for _, n := range ft.Nodes() {
		for _, s := range n.Block.Schema() {
			seen[s]++
		}
	}
	for s, c := range seen {
		if c != 1 {
			t.Fatalf("attribute %q owned by %d nodes, want exactly 1", s, c)
		}
	}
}

func TestFindColumnAndNodeOfColumns(t *testing.T) {
	ft := figure7Tree()
	n, c := ft.FindColumn("comLen")
	if c == nil || n == ft.Root {
		t.Fatal("comLen should resolve to a non-root node")
	}
	if ft.NodeOfColumns([]string{"comId", "comLen"}) == nil {
		t.Fatal("comId+comLen live on one node")
	}
	if ft.NodeOfColumns([]string{"comId", "postId"}) != nil {
		t.Fatal("comId+postId span nodes; NodeOfColumns must return nil")
	}
	if ft.NodeOfColumns([]string{"nope"}) != nil {
		t.Fatal("unknown column must return nil")
	}
}

func TestEnumerateEarlyExit(t *testing.T) {
	ft := figure7Tree()
	refs, err := ft.Resolve([]string{"pId"})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	ft.Enumerate(refs, func(row []vector.Value) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early-exit enumeration visited %d tuples, want 2", count)
	}
}

func TestEmptyTreeAndEmptyRanges(t *testing.T) {
	// Root with zero rows.
	empty := vector.NewColumn("x", vector.KindInt64)
	ft := NewFTree(NewFBlock(empty))
	if got := ft.CountTuples(); got != 0 {
		t.Fatalf("empty tree CountTuples = %d", got)
	}
	fb, err := ft.DefactorAll()
	if err != nil || fb.NumRows() != 0 {
		t.Fatalf("empty tree defactor: rows=%d err=%v", fb.NumRows(), err)
	}

	// Root row with an empty child range yields no tuples for that row.
	x := vector.NewColumn("x", vector.KindInt64)
	x.AppendInt64(1)
	x.AppendInt64(2)
	ft2 := NewFTree(NewFBlock(x))
	y := vector.NewColumn("y", vector.KindInt64)
	y.AppendInt64(10)
	ft2.AddChild(ft2.Root, NewFBlock(y), []Range{{0, 1}, {1, 1}})
	if got := ft2.CountTuples(); got != 1 {
		t.Fatalf("CountTuples with empty range = %d, want 1", got)
	}
	fb2, _ := ft2.DefactorAll()
	if fb2.NumRows() != 1 || fb2.Rows[0][0].I != 1 {
		t.Fatalf("defactor with empty range wrong: %s", fb2)
	}
}

func TestPruneUp(t *testing.T) {
	ft := figure7Tree()
	u := ft.Root.Children[0]
	// Invalidate every comment row; p1 and p2 both lose all u-extensions.
	u.Sel.ClearAll()
	ft.PruneUp(u)
	if ft.Root.Sel.Get(0) || ft.Root.Sel.Get(1) {
		t.Fatal("PruneUp should invalidate root rows with no valid child")
	}
	if got := ft.CountTuples(); got != 0 {
		t.Fatalf("CountTuples after prune = %d", got)
	}
}

func TestCountTuplesMatchesEnumerate(t *testing.T) {
	ft := figure7Tree()
	refs, _ := ft.Resolve(ft.Schema())
	n := 0
	ft.Enumerate(refs, func([]vector.Value) bool { n++; return true })
	if int64(n) != ft.CountTuples() {
		t.Fatalf("Enumerate count %d != CountTuples %d", n, ft.CountTuples())
	}
}

func TestMemBytesShrinksVsFlat(t *testing.T) {
	// Figure 5's point: one parent value shared by k children is stored
	// once factorized, k times flat.
	const k = 10000
	a := vector.NewColumn("a", vector.KindInt64)
	a.AppendInt64(7)
	ft := NewFTree(NewFBlock(a))
	b := vector.NewColumn("b", vector.KindInt64)
	for i := 0; i < k; i++ {
		b.AppendInt64(int64(i))
	}
	ft.AddChild(ft.Root, NewFBlock(b), []Range{{0, k}})

	flat, err := ft.DefactorAll()
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumRows() != k {
		t.Fatalf("flat rows = %d", flat.NumRows())
	}
	if ft.MemBytes() >= flat.MemBytes() {
		t.Fatalf("factorized %dB not smaller than flat %dB", ft.MemBytes(), flat.MemBytes())
	}
}

func TestAddChildIndexLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddChild with wrong index length must panic")
		}
	}()
	a := vector.NewColumn("a", vector.KindInt64)
	a.AppendInt64(1)
	ft := NewFTree(NewFBlock(a))
	b := vector.NewColumn("b", vector.KindInt64)
	ft.AddChild(ft.Root, NewFBlock(b), []Range{{0, 0}, {0, 0}})
}

// TestWeightsMatchEnumeration holds Weights, for every node of random trees
// (selection holes, empty ranges, leaves off the path and siblings with
// children), to the number of enumerated tuples each row takes part in.
func TestWeightsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	scratch := new([]int64)
	for trial := range 2000 {
		ft := randomTree(rng)
		for _, node := range ft.Nodes() {
			want := make([]int64, node.Block.NumRows())
			ft.EnumerateRows(func(rows []int, _ int) bool {
				want[rows[node.ID()]]++
				return true
			})
			if got := ft.Weights(node, scratch); !slices.Equal(got, want) {
				t.Fatalf("trial %d, node %d: weights %v, want %v\n%s", trial, node.ID(), got, want, ft)
			}
		}
	}
}
