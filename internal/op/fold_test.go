package op_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ges/internal/core"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// foldCase builds from rng a random f-Tree of 1–4 nodes and an aggregate
// over it. Every node i holds a VID column vi, the VIDs' ids ki, an int64
// ii, a date di, a float64 fi, a dictionary-coded string si (one dictionary,
// interned in a shuffled order so codes do not follow the strings' order)
// and a plain string pi; rows have selection holes, child fan-out gives the
// rows of a node weights above 1, and in one node in three a fifth of the
// rows of ii, di, fi, si and pi are null. The aggregate's key is global, a
// KeyVar VID (emitted as ki), an int, a date, a dictionary-coded string, a
// plain string, a VID or two columns, and it computes one to three
// aggregates of any function. Its columns lie on one root-to-node chain,
// where the weighted fold reads them, three times in four; otherwise on any
// nodes.
func foldCase(rng *rand.Rand, g *storage.Graph, vids []vector.VID) (*core.FTree, *op.Aggregate) {
	words := []string{"ash", "birch", "cedar", "elm", "fir", "oak"}
	dict := vector.NewDict()
	for _, i := range rng.Perm(len(words)) {
		dict.Intern(words[i])
	}
	wide := rng.Intn(8) == 0 // past one fold chunk
	block := func(id, rows int) *core.FBlock {
		cols := []*vector.Column{
			vector.NewColumn(fmt.Sprintf("v%d", id), vector.KindVID),
			vector.NewColumn(fmt.Sprintf("k%d", id), vector.KindInt64),
			vector.NewColumn(fmt.Sprintf("i%d", id), vector.KindInt64),
			vector.NewColumn(fmt.Sprintf("d%d", id), vector.KindDate),
			vector.NewColumn(fmt.Sprintf("f%d", id), vector.KindFloat64),
			vector.NewDictColumn(fmt.Sprintf("s%d", id), dict),
			vector.NewColumn(fmt.Sprintf("p%d", id), vector.KindString),
		}
		nulls := rng.Intn(3) == 0
		for range rows {
			v := vids[rng.Intn(len(vids))]
			cols[0].AppendVID(v)
			cols[1].AppendInt64(g.ExtID(v))
			vals := []vector.Value{
				vector.Int64(int64(rng.Intn(9) - 4)),
				vector.Date(int64(19000 + rng.Intn(20))),
				vector.Float64(rng.Float64()*8 - 4),
				vector.String_(words[rng.Intn(len(words))]),
				vector.String_(words[rng.Intn(len(words))]),
			}
			for c, val := range vals {
				if nulls && rng.Intn(5) == 0 {
					val = vector.Value{}
				}
				cols[2+c].Append(val)
			}
		}
		return core.NewFBlock(cols...)
	}
	rootRows := rng.Intn(5)
	if wide {
		rootRows = 1000 + rng.Intn(1500)
	}
	ft := core.NewFTree(block(0, rootRows))
	for n := 1 + rng.Intn(4); len(ft.Nodes()) < n; {
		parent := ft.Nodes()[rng.Intn(len(ft.Nodes()))]
		index := make([]core.Range, parent.Block.NumRows())
		total := int32(0)
		for i := range index {
			span := int32(rng.Intn(4))
			index[i] = core.Range{Start: total, End: total + span}
			total += span
		}
		ft.AddChild(parent, block(len(ft.Nodes()), int(total)), index)
	}
	for _, n := range ft.Nodes() {
		for r := range n.Block.NumRows() {
			if rng.Intn(4) == 0 {
				n.Sel.Clear(r)
			}
		}
	}

	// The nodes the columns come from: a chain, or the whole tree.
	var from []int
	for n := ft.Nodes()[rng.Intn(ft.NumNodes())]; n != nil; n = n.Parent {
		from = append(from, n.ID())
	}
	if rng.Intn(4) == 0 {
		from = from[:0]
		for _, n := range ft.Nodes() {
			from = append(from, n.ID())
		}
	}
	col := func(kinds string) string {
		return fmt.Sprintf("%c%d", kinds[rng.Intn(len(kinds))], from[rng.Intn(len(from))])
	}
	o := &op.Aggregate{Unordered: rng.Intn(2) == 0}
	switch rng.Intn(8) {
	case 1:
		n := from[rng.Intn(len(from))]
		o.GroupBy, o.KeyVar = []string{fmt.Sprintf("k%d", n)}, fmt.Sprintf("v%d", n)
	case 2:
		o.GroupBy = []string{col("i")}
	case 3:
		o.GroupBy = []string{col("d")}
	case 4:
		o.GroupBy = []string{col("s")}
	case 5:
		o.GroupBy = []string{col("p")}
	case 6:
		o.GroupBy = []string{col("sipd"), col("vifsp")}
		if o.GroupBy[0] == o.GroupBy[1] {
			o.GroupBy = o.GroupBy[:1]
		}
	case 7:
		o.GroupBy = []string{col("v")}
	}
	for j := range 1 + rng.Intn(3) {
		a := op.AggSpec{Func: op.AggFunc(rng.Intn(int(op.Avg) + 1)), As: fmt.Sprintf("a%d", j)}
		if a.Func != op.Count || rng.Intn(2) == 0 {
			a.Arg = col("vidfsp")
		}
		if a.Func == op.Sum || a.Func == op.Avg {
			a.Arg = col("idf")
		}
		o.Aggs = append(o.Aggs, a)
	}
	return ft, o
}

// checkFold aggregates one random case and holds the result to the volcano
// oracle's grouping of the tree's de-factored rows (volcano.GroupRows),
// rows in emission order, or as a multiset when the aggregate is
// Unordered. It reports whether the aggregate took the weighted fold.
func checkFold(t *testing.T, seed int64, ctx *op.Ctx, g *storage.Graph, vids []vector.VID) bool {
	t.Helper()
	ft, o := foldCase(rand.New(rand.NewSource(seed)), g, vids)
	chain := op.FoldsChain(o, ft)
	out, err := o.Execute(ctx, ft)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	got := boxed(t, out)
	// The oracle's rows pass through typed columns, as the engine's do: a
	// SUM over dates is an int64 held in a date column.
	want := boxed(t, flatTree(flatAggregate(t, boxed(t, ft), o.GroupBy, o.Aggs)))
	if o.Unordered {
		for _, fb := range []*core.FlatBlock{got, want} {
			slices.SortFunc(fb.Rows, func(a, b []vector.Value) int {
				return slices.CompareFunc(a, b, func(x, y vector.Value) int { return strings.Compare(x.String(), y.String()) })
			})
		}
	}
	if !slices.Equal(got.Names, want.Names) || !slices.Equal(got.Kinds, want.Kinds) || !slices.EqualFunc(got.Rows, want.Rows, sameRow) {
		t.Fatalf("seed %d: group by %v (key var %q, unordered %v) of %v over\n%s\n got %v %v\nwant %v %v",
			seed, o.GroupBy, o.KeyVar, o.Unordered, o.Aggs, ft, got.Kinds, got.Rows, want.Kinds, want.Rows)
	}
	return chain
}

// TestWeightedFoldMatchesEnumeration holds the fold — weighted over one
// chain's rows, or over the tuples — to the volcano oracle on random
// f-Trees, for every key mode and aggregate function, nulls included, and
// checks that most cases take the weighted fold.
func TestWeightedFoldMatchesEnumeration(t *testing.T) {
	fx := testgraph.New()
	ctx := &op.Ctx{View: fx.Graph}
	vids := fx.Persons[:4]
	weighted := 0
	const trials = 3000
	for seed := range int64(trials) {
		if checkFold(t, seed, ctx, fx.Graph, vids) {
			weighted++
		}
	}
	if weighted < trials/2 {
		t.Fatalf("the weighted fold ran in %d of %d cases, want at least half", weighted, trials)
	}
}

// FuzzWeightedFold is TestWeightedFoldMatchesEnumeration's comparison over
// fuzzed seeds.
func FuzzWeightedFold(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 20, -3} {
		f.Add(seed)
	}
	fx := testgraph.New()
	ctx := &op.Ctx{View: fx.Graph}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFold(t, seed, ctx, fx.Graph, fx.Persons[:4])
	})
}
