package op_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ges/internal/core"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

// TestAggregateOnFlatBlock runs Aggregate and AggregateProjectTop on the
// de-factored form — a one-node f-Tree over a flat block's rows — against
// the row-by-row reference (flatAggregate): global, int-keyed, string-keyed
// and multi-column groups, every aggregate function — float SUM and AVG
// included — over a block of rows and over an empty block, whose global MIN
// and MAX stay null (vector.Value{}).
func TestAggregateOnFlatBlock(t *testing.T) {
	names := []string{"k", "s", "i", "f", "d"}
	kinds := []vector.Kind{vector.KindInt64, vector.KindString, vector.KindInt64, vector.KindFloat64, vector.KindDate}
	rng := rand.New(rand.NewSource(61))
	full := core.NewFlatBlock(names, kinds)
	for range 300 {
		full.Append([]vector.Value{
			vector.Int64(int64(rng.Intn(7) - 3)),
			vector.String_(string(rune('a' + rng.Intn(4)))),
			vector.Int64(rng.Int63n(1000) - 500),
			vector.Float64(rng.Float64()*10 - 5),
			vector.Date(int64(rng.Intn(30))),
		})
	}
	aggs := []op.AggSpec{
		{Func: op.Count, As: "n"},
		{Func: op.CountDistinct, Arg: "i", As: "cd"},
		{Func: op.Sum, Arg: "i", As: "si"},
		{Func: op.Sum, Arg: "f", As: "sf"},
		{Func: op.Avg, Arg: "i", As: "ai"},
		{Func: op.Avg, Arg: "f", As: "af"},
		{Func: op.Min, Arg: "f", As: "minF"},
		{Func: op.Max, Arg: "s", As: "maxS"},
		{Func: op.Min, Arg: "d", As: "minD"},
		{Func: op.Max, Arg: "i", As: "maxI"},
	}
	pool := storage.NewPool()
	for _, fb := range []*core.FlatBlock{full, core.NewFlatBlock(names, kinds)} {
		for _, groupBy := range [][]string{nil, {"k"}, {"s"}, {"k", "s"}} {
			want := flatAggregate(t, fb, groupBy, aggs)
			// The top-k sorts by the count, ties broken by every group
			// column, so its order is the reference's sorted the same way.
			keys := []op.SortKey{{Col: "n", Desc: true}}
			for _, g := range groupBy {
				keys = append(keys, op.SortKey{Col: g})
			}
			top := core.NewFlatBlock(want.Names, want.Kinds)
			top.Rows = slices.Clone(want.Rows)
			sortRows(top, keys)
			top.Rows = top.Rows[:min(3, len(top.Rows))]

			for _, c := range []struct {
				o    op.Operator
				want *core.FlatBlock
			}{
				{&op.Aggregate{GroupBy: groupBy, Aggs: aggs}, want},
				{&op.AggregateProjectTop{Aggregate: op.Aggregate{GroupBy: groupBy, Aggs: aggs}, Keys: keys, Limit: 3}, top},
			} {
				arena := pool.GetArena()
				ctx := &op.Ctx{Arena: arena}
				out, err := c.o.Execute(ctx, flatTree(fb))
				if err != nil {
					t.Fatalf("%s by %v over %d rows: %v", c.o.Name(), groupBy, fb.NumRows(), err)
				}
				got := boxed(t, out)
				if !slices.Equal(got.Names, c.want.Names) || !slices.Equal(got.Kinds, c.want.Kinds) ||
					!slices.EqualFunc(got.Rows, c.want.Rows, sameRow) {
					t.Fatalf("%s by %v over %d rows:\n got %v %v %v\nwant %v %v %v", c.o.Name(), groupBy, fb.NumRows(),
						got.Names, got.Kinds, got.Rows, c.want.Names, c.want.Kinds, c.want.Rows)
				}
				if fb.NumRows() == 0 && groupBy == nil {
					for j, a := range aggs {
						if v := got.Rows[0][j]; (a.Func == op.Min || a.Func == op.Max) && v != (vector.Value{}) {
							t.Fatalf("%s: global %s over no rows is %v, want null", c.o.Name(), a.As, v)
						}
					}
				}
				pool.PutArena(arena)
			}
		}
	}
}

// flatTree returns a one-node tree over fb's rows: the de-factored form.
func flatTree(fb *core.FlatBlock) *core.FTree {
	b := core.NewFBlock()
	for j, name := range fb.Names {
		col := vector.NewColumn(name, fb.Kinds[j])
		for _, row := range fb.Rows {
			col.Append(row[j])
		}
		b.AddColumn(col)
	}
	return core.NewFTree(b)
}

// boxed renders ft's tuples through the reference de-factor.
func boxed(t *testing.T, ft *core.FTree) *core.FlatBlock {
	t.Helper()
	fb, err := ft.DefactorAll()
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// sameRow compares two rows value by value, as their kinds print them.
func sameRow(a, b []vector.Value) bool {
	return slices.EqualFunc(a, b, func(x, y vector.Value) bool { return x.Kind == y.Kind && x.String() == y.String() })
}

// sortRows orders fb's rows by keys, stably.
func sortRows(fb *core.FlatBlock, keys []op.SortKey) {
	sort.SliceStable(fb.Rows, func(a, b int) bool {
		for _, k := range keys {
			c := vector.Compare(fb.Rows[a][fb.ColIndex(k.Col)], fb.Rows[b][fb.ColIndex(k.Col)])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// TestNullGroupKey groups an int, a date and a VID column holding 0, null,
// 0: the null row is a group of its own, apart from the zero it holds, as
// the volcano oracle groups it.
func TestNullGroupKey(t *testing.T) {
	for _, k := range []vector.Value{vector.Int64(0), vector.Date(0), vector.VIDValue(0)} {
		fb := core.NewFlatBlock([]string{"k"}, []vector.Kind{k.Kind})
		for _, v := range []vector.Value{k, {}, k} {
			fb.Append([]vector.Value{v})
		}
		aggs := []op.AggSpec{{Func: op.Count, As: "n"}}
		out, err := (&op.Aggregate{GroupBy: []string{"k"}, Aggs: aggs}).Execute(&op.Ctx{}, flatTree(fb))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := boxed(t, out), flatAggregate(t, fb, []string{"k"}, aggs); !slices.EqualFunc(got.Rows, want.Rows, sameRow) {
			t.Fatalf("group by a %s key over [0 null 0] = %v, want %v", k.Kind, got.Rows, want.Rows)
		}
	}
}
