package op

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ges/internal/core"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// foldCase builds from rng a random f-Tree of 1–4 nodes and an aggregate
// over it. Every node i holds a VID column vi, an int64 ii, a date di, a
// float64 fi, a dictionary-coded string si (one dictionary, interned in a
// shuffled order so codes do not follow the strings' order) and a plain
// string pi; rows have selection holes, and child fan-out gives the rows of
// a node weights above 1. The aggregate's key is global, a KeyVar VID, an
// int, a date, a dictionary-coded string, a plain string or two columns, and
// it computes one to three aggregates of any function. Its columns lie on
// one root-to-node chain, where the weighted fold reads them, three times
// in four; otherwise on any nodes.
func foldCase(rng *rand.Rand, vids []vector.VID) (*core.FTree, *Aggregate) {
	words := []string{"ash", "birch", "cedar", "elm", "fir", "oak"}
	dict := vector.NewDict()
	for _, i := range rng.Perm(len(words)) {
		dict.Intern(words[i])
	}
	wide := rng.Intn(8) == 0 // past one fold morsel
	block := func(id, rows int) *core.FBlock {
		cols := []*vector.Column{
			vector.NewColumn(fmt.Sprintf("v%d", id), vector.KindVID),
			vector.NewColumn(fmt.Sprintf("i%d", id), vector.KindInt64),
			vector.NewColumn(fmt.Sprintf("d%d", id), vector.KindDate),
			vector.NewColumn(fmt.Sprintf("f%d", id), vector.KindFloat64),
			vector.NewDictColumn(fmt.Sprintf("s%d", id), dict),
			vector.NewColumn(fmt.Sprintf("p%d", id), vector.KindString),
		}
		for range rows {
			cols[0].AppendVID(vids[rng.Intn(len(vids))])
			cols[1].AppendInt64(int64(rng.Intn(9) - 4))
			cols[2].AppendInt64(int64(19000 + rng.Intn(20)))
			cols[3].AppendFloat64(rng.Float64()*8 - 4)
			cols[4].AppendString(words[rng.Intn(len(words))])
			cols[5].AppendString(words[rng.Intn(len(words))])
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
	o := &Aggregate{Unordered: rng.Intn(2) == 0}
	switch rng.Intn(7) {
	case 1:
		o.GroupBy, o.KeyVar = []string{"key.id"}, col("v")
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
	}
	for j := range 1 + rng.Intn(3) {
		a := AggSpec{Func: AggFunc(rng.Intn(int(Avg) + 1)), As: fmt.Sprintf("a%d", j)}
		if a.Func != Count || rng.Intn(2) == 0 {
			a.Arg = col("vidfsp")
		}
		if a.Func == Sum || a.Func == Avg {
			a.Arg = col("idf")
		}
		o.Aggs = append(o.Aggs, a)
	}
	return ft, o
}

// foldBoth aggregates ft by o as group does — the weighted fold where the
// columns lie on one chain — and by the enumeration fold, the oracle: every
// tuple enumerated and folded with weight 1. It reports whether group took
// the weighted fold.
func foldBoth(ctx *Ctx, o *Aggregate, ft *core.FTree) (got, want *core.FlatBlock, weighted bool, err error) {
	t, err := o.group(ctx, ft)
	if err != nil {
		return nil, nil, false, err
	}
	got, err = core.NewFTree(t.block(ctx, t.slots(ctx))).DefactorAll()
	t.release()
	if err != nil {
		return nil, nil, false, err
	}

	e, err := newAggTable(o)
	if err != nil {
		return nil, nil, false, err
	}
	refs, err := ft.Resolve(e.cols)
	if err != nil {
		return nil, nil, false, err
	}
	for _, r := range refs {
		e.kinds = append(e.kinds, ft.Nodes()[r.Node].Block.Column(r.Col).Kind)
	}
	e.bind()
	ft.Enumerate(refs, func(row []vector.Value) bool {
		e.foldRow(row, 1)
		return true
	})
	want, err = core.NewFTree(e.block(ctx, e.slots(ctx))).DefactorAll()
	e.release()
	weighted = foldNode(ft, refs) != nil && (ft.NumNodes() == 1 || !e.floatSum())
	return got, want, weighted, nil
}

// checkFold compares the two folds of one random case, rows in emission
// order.
func checkFold(t *testing.T, seed int64, ctx *Ctx, vids []vector.VID) bool {
	t.Helper()
	ft, o := foldCase(rand.New(rand.NewSource(seed)), vids)
	got, want, weighted, err := foldBoth(ctx, o, ft)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	same := func(a, b []vector.Value) bool {
		return slices.EqualFunc(a, b, func(x, y vector.Value) bool { return x.Kind == y.Kind && x.String() == y.String() })
	}
	if !slices.Equal(got.Names, want.Names) || !slices.Equal(got.Kinds, want.Kinds) || !slices.EqualFunc(got.Rows, want.Rows, same) {
		t.Fatalf("seed %d: group by %v (key var %q, unordered %v) of %v over\n%s\n got %v %v\nwant %v %v",
			seed, o.GroupBy, o.KeyVar, o.Unordered, o.Aggs, ft, got.Kinds, got.Rows, want.Kinds, want.Rows)
	}
	return weighted
}

// TestWeightedFoldMatchesEnumeration holds the weighted, typed fold to the
// enumeration fold on random f-Trees, for every key mode and aggregate
// function, in emission order.
func TestWeightedFoldMatchesEnumeration(t *testing.T) {
	fx := testgraph.New()
	ctx := &Ctx{View: fx.Graph}
	vids := fx.Persons[:4]
	weighted := 0
	const trials = 3000
	for seed := range int64(trials) {
		if checkFold(t, seed, ctx, vids) {
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
	ctx := &Ctx{View: fx.Graph}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFold(t, seed, ctx, fx.Persons[:4])
	})
}
