package op_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/testgraph"
	"ges/internal/vector"
	"ges/internal/volcano"
)

// randomAggTree builds a random f-Tree whose every block carries one int64
// column, mirroring the shapes Expand produces (disjoint, ordered child
// ranges).
func randomAggTree(rng *rand.Rand) *core.FTree {
	col := func(name string, rows int) *vector.Column {
		c := vector.NewColumn(name, vector.KindInt64)
		for i := 0; i < rows; i++ {
			c.AppendInt64(int64(rng.Intn(5))) // few distinct values => real groups
		}
		return c
	}
	rootRows := 1 + rng.Intn(3)
	ft := core.NewFTree(core.NewFBlock(col("c0", rootRows)))
	nodes := []*core.Node{ft.Root}
	nNodes := 2 + rng.Intn(3)
	for id := 1; id < nNodes; id++ {
		parent := nodes[rng.Intn(len(nodes))]
		pRows := parent.Block.NumRows()
		index := make([]core.Range, pRows)
		total := int32(0)
		for i := 0; i < pRows; i++ {
			span := int32(rng.Intn(4))
			index[i] = core.Range{Start: total, End: total + span}
			total += span
		}
		child := ft.AddChild(parent, core.NewFBlock(col(fmt.Sprintf("c%d", id), int(total))), index)
		nodes = append(nodes, child)
	}
	for _, n := range ft.Nodes() {
		for r := 0; r < n.Block.NumRows(); r++ {
			if rng.Intn(5) == 0 {
				n.Sel.Clear(r)
			}
		}
	}
	return ft
}

// TestWeightedAggregationMatchesFlat is the correctness property behind the
// AggregateProjectTop fusion: for random trees, the weighted single-node
// factorized aggregation must agree exactly with de-factoring followed by
// flat hash aggregation — for every aggregate function.
func TestWeightedAggregationMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 300; trial++ {
		ft := randomAggTree(rng)
		// Pick a node to aggregate on: group by its column, aggregate it too.
		nodes := ft.Nodes()
		target := nodes[rng.Intn(len(nodes))]
		colName := target.Block.Column(0).Name

		aggs := []op.AggSpec{
			{Func: op.Count, As: "cnt"},
			{Func: op.Sum, Arg: colName, As: "sum"},
			{Func: op.Min, Arg: colName, As: "min"},
			{Func: op.Max, Arg: colName, As: "max"},
			{Func: op.Avg, Arg: colName, As: "avg"},
			{Func: op.CountDistinct, Arg: colName, As: "cd"},
		}

		// Reference: full de-factor + flat hash aggregation.
		flat, err := ft.DefactorAll()
		if err != nil {
			t.Fatal(err)
		}
		want := flatAggregate(t, flat, []string{colName}, aggs)

		// Fused: the weighted factorized path (single-node condition holds
		// by construction).
		fused := &op.AggregateProjectTop{Aggregate: op.Aggregate{GroupBy: []string{colName}, Aggs: aggs}}
		got, err := fused.Execute(&op.Ctx{}, ft)
		if err != nil {
			t.Fatal(err)
		}

		if fb := boxed(t, got); !sameTable(fb, want) {
			t.Fatalf("trial %d: weighted aggregation diverges\n got: %s\nwant: %s\ntree:\n%s",
				trial, fb, want, ft)
		}
	}
}

// TestStreamingAggregationMatchesFlat covers the cross-node (streaming)
// fused path with group-by and argument on different nodes.
func TestStreamingAggregationMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 200; trial++ {
		ft := randomAggTree(rng)
		nodes := ft.Nodes()
		if len(nodes) < 2 {
			continue
		}
		groupCol := nodes[0].Block.Column(0).Name
		argCol := nodes[len(nodes)-1].Block.Column(0).Name
		if groupCol == argCol {
			continue
		}
		aggs := []op.AggSpec{
			{Func: op.Count, As: "cnt"},
			{Func: op.Sum, Arg: argCol, As: "sum"},
		}
		flat, err := ft.DefactorAll()
		if err != nil {
			t.Fatal(err)
		}
		want := flatAggregate(t, flat, []string{groupCol}, aggs)
		fused := &op.AggregateProjectTop{Aggregate: op.Aggregate{GroupBy: []string{groupCol}, Aggs: aggs}}
		got, err := fused.Execute(&op.Ctx{}, ft)
		if err != nil {
			t.Fatal(err)
		}
		if fb := boxed(t, got); !sameTable(fb, want) {
			t.Fatalf("trial %d: streaming aggregation diverges\n got: %s\nwant: %s", trial, fb, want)
		}
	}
}

// flatAggregate groups a flat block row by row: the volcano oracle's
// grouping, which shares nothing with the engine's group table.
func flatAggregate(t *testing.T, flat *core.FlatBlock, groupBy []string, aggs []op.AggSpec) *core.FlatBlock {
	t.Helper()
	out, err := volcano.GroupRows(flat, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTable(a, b *core.FlatBlock) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	return reflect.DeepEqual(rowsAsStrings(a), rowsAsStrings(b))
}

// TestSeekExpandMatchesSeekPlusExpand validates the VertexExpand fusion
// directly on the fixture, including the missing-vertex edge case.
func TestSeekExpandMatchesSeekPlusExpand(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	for _, ext := range []int64{100, 102, 104, 999} {
		fusedGot := run(t, f, exec.ModeFactorized, plan.Plan{
			&op.SeekExpand{Label: s.Person, ExtID: ext, To: "f", Et: s.Knows,
				Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Defactor{Cols: []string{"f.id"}},
		})
		plainGot := run(t, f, exec.ModeFactorized, plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: ext},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Defactor{Cols: []string{"f.id"}},
		})
		if !reflect.DeepEqual(rowsAsStrings(fusedGot), rowsAsStrings(plainGot)) {
			t.Fatalf("ext %d: fused %v != plain %v", ext, rowsAsStrings(fusedGot), rowsAsStrings(plainGot))
		}
	}
}

// TestAggregateEmitsInKeyOrder pins the emission order of integer groups,
// which the group table reaches without building keys: the order of the
// length-prefixed key strings — lengths compared as strings ("10:" before
// "2:"), then the digits, negatives first.
func TestAggregateEmitsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fb := core.NewFlatBlock([]string{"k"}, []vector.Kind{vector.KindInt64})
	var want []string
	seen := map[int64]bool{}
	for _, v := range []int64{0, -1, 9, 10, -10, 1 << 40, -1 << 63, 1<<63 - 1, 1234567890} {
		fb.Append([]vector.Value{vector.Int64(v)})
		seen[v] = true
	}
	for i := 0; i < 500; i++ {
		v := rng.Int63n(1<<uint(rng.Intn(62)+1)) - rng.Int63n(1<<uint(rng.Intn(62)+1))
		fb.Append([]vector.Value{vector.Int64(v)})
		seen[v] = true
	}
	for v := range seen {
		s := strconv.FormatInt(v, 10)
		want = append(want, strconv.Itoa(len(s))+":"+s)
	}
	sort.Strings(want)
	out := flatAggregate(t, fb, []string{"k"}, []op.AggSpec{{Func: op.Count, As: "n"}})
	for i, row := range out.Rows {
		if s := strconv.FormatInt(row[0].I, 10); strconv.Itoa(len(s))+":"+s != want[i] {
			t.Fatalf("group %d is %d, want key %s", i, row[0].I, want[i])
		}
	}
}

// TestUnorderedAggregate pins what Aggregate.Unordered changes: groups come
// out in first-seen order, except over a float group column, whose distinct
// groups 0 and -0 compare equal and so stay in key order.
func TestUnorderedAggregate(t *testing.T) {
	run := func(kind vector.Kind, keys []vector.Value, unordered bool) []string {
		fb := core.NewFlatBlock([]string{"k"}, []vector.Kind{kind})
		for _, k := range keys {
			fb.Append([]vector.Value{k})
		}
		g := &op.Aggregate{GroupBy: []string{"k"}, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}, Unordered: unordered}
		out, err := g.Execute(&op.Ctx{}, flatTree(fb))
		if err != nil {
			t.Fatal(err)
		}
		var emitted []string
		for _, row := range boxed(t, out).Rows {
			emitted = append(emitted, row[0].String())
		}
		return emitted
	}
	ints := []vector.Value{vector.Int64(3), vector.Int64(1), vector.Int64(2), vector.Int64(1)}
	if got, want := run(vector.KindInt64, ints, true), []string{"3", "1", "2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unordered int groups = %v, want first-seen %v", got, want)
	}
	floats := []vector.Value{vector.Float64(1.5), vector.Float64(0), vector.Float64(math.Copysign(0, -1)), vector.Float64(-2)}
	if got, want := run(vector.KindFloat64, floats, true), run(vector.KindFloat64, floats, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("unordered float groups = %v, want key order %v", got, want)
	}
}
