package op_test

import (
	"sync"
	"testing"

	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// The operators have one implementation per observable input condition: a
// sealed single-family run is zero-copy and sorted, an unsealed graph or a
// transaction snapshot answers NeighborsBatch through AppendNeighborsBatch
// with unsorted runs (so cyclic joins probe hash sets), a delta overlay
// merges two cursors, a property overlay patches the bulk gather. This table
// runs every plan shape that reaches one of those branches over all four
// representations of one logical LDBC graph, large enough to cross the
// morsel threshold, against the volcano oracle.

var parityLDBC struct {
	once  sync.Once
	ds    *ldbc.Dataset
	views []paritytest.View
}

func parityViews(t *testing.T) (*ldbc.Dataset, []paritytest.View) {
	t.Helper()
	parityLDBC.once.Do(func() { parityLDBC.ds, parityLDBC.views = paritytest.LDBCViews(t, 0.05, 7) })
	if parityLDBC.views == nil {
		t.Fatal("parity views failed to build")
	}
	return parityLDBC.ds, parityLDBC.views
}

func midDate() int64 { return (ldbc.DayStart + ldbc.DayEnd) / 2 }

// countSum closes a pattern plan with a divergence-sensitive aggregate: the
// match count plus the sum of one variable's external ids.
func countSum(v string) plan.Plan {
	return plan.Plan{
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: "v.id", ExtID: true}}},
		&op.Aggregate{Aggs: []op.AggSpec{
			{Func: op.Count, As: "n"},
			{Func: op.Sum, Arg: "v.id", As: "sum"},
		}},
	}
}

func TestOperatorParity(t *testing.T) {
	ds, views := parityViews(t)
	h := ds.H
	knows := func(from, to string) *op.Expand {
		return &op.Expand{From: from, To: to, Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person}
	}
	side := func(v string, dir catalog.Direction) op.IntersectSide {
		return op.IntersectSide{Var: v, Et: h.Knows, Dir: dir, DstLabel: h.Person, SrcLabel: h.Person}
	}
	scan := func(v string) *op.NodeScan { return &op.NodeScan{Var: v, Label: h.Person} }
	// anchor20 roots the quadratic shapes at the 20 lowest-id persons: their
	// deep nodes still run to thousands of rows (morsel-parallel), at a third
	// of the full scan's cost.
	anchor20 := func(v string) plan.Plan {
		return plan.Plan{scan(v),
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: "anchor.id", ExtID: true}}},
			&op.Filter{Pred: expr.Le(expr.C("anchor.id"), expr.LInt(20))}}
	}
	genderAndDate := expr.And{
		L: expr.Eq(expr.C("gender"), expr.LStr("male")),
		R: expr.Lt(expr.C("creationDate"), expr.LDate(midDate())),
	}

	// twoHop ends a two-hop pattern with every variable's id projected.
	twoHop := func(tail ...op.Operator) plan.Plan {
		return append(plan.Plan{scan("p"), knows("p", "f"), knows("f", "g"),
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "p", As: "p.id", ExtID: true}, {Var: "f", As: "f.id", ExtID: true},
				{Var: "g", As: "g.id", ExtID: true}}}}, tail...)
	}
	count := op.AggSpec{Func: op.Count, As: "n"}
	agg := func(fn op.AggFunc, arg string) op.AggSpec { return op.AggSpec{Func: fn, Arg: arg, As: fn.String()} }
	shapes := []struct {
		name    string
		ordered bool // the plan ends in a total order
		build   func() plan.Plan
	}{
		// Expansion: lazy, materializing (edge props + both fused predicate
		// kinds), flat, BFS levels, and the seek fusion.
		{"expand/two-hop-lazy", false, func() plan.Plan {
			return append(plan.Plan{scan("p"), knows("p", "f"), knows("f", "g")}, countSum("g")...)
		}},
		{"expand/edge-props-fused-preds", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					EdgeProps:    []op.EdgeProj{{Prop: "creationDate", As: "since"}},
					VertexPred:   op.VertexPropPred(genderAndDate, nil),
					EdgePropPred: func(p []vector.Value) bool { return p[0].I >= midDate() }},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "f", As: "f.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"p.id", "f.id", "since"}},
			}
		}},
		// The second hop's parent block (every person's friends) crosses the
		// morsel threshold, so these run the materializing body per morsel:
		// the stateful predicate forked per morsel, the kept half of the
		// neighbors exercising the merge offsets, and edge-property columns
		// merged alongside. The flat mode runs the same through flat Expand.
		{"expand/second-hop-fused-pred", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(midID(ds))), nil)},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id"}},
			}
		}},
		{"expand/second-hop-fused-pred-edge-props", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(midID(ds))), nil),
					EdgeProps:  []op.EdgeProj{{Prop: "creationDate", As: "since"}}},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id", "since"}},
			}
		}},
		{"expand/any-label", false, func() plan.Plan {
			return append(plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel}},
				countSum("m")...)
		}},
		{"varexpand/bfs-distinct", false, func() plan.Plan {
			return append(plan.Plan{scan("p"),
				&op.VarLengthExpand{From: "p", To: "r", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 2, Distinct: true}},
				countSum("r")...)
		}},
		{"varexpand/bfs-after-expand", false, func() plan.Plan {
			return append(plan.Plan{scan("p"), knows("p", "f"),
				&op.VarLengthExpand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 1, Distinct: true}},
				countSum("g")...)
		}},
		{"seek-expand", false, func() plan.Plan {
			return plan.Plan{
				&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: 1},
				knows("p", "f"), knows("f", "g"),
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id"}},
			}
		}},

		// Cyclic joins: cursor vs hash-set probe is chosen by Batch.Sorted.
		{"expand-into/triangle", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("b", "c"),
				&op.ExpandInto{From: "c", To: "a", Et: h.Knows, Dir: catalog.Out,
					DstLabel: h.Person, SrcLabel: h.Person}},
				countSum("c")...)
		}},
		{"expand-into/sibling-flat", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("a", "c"),
				&op.ExpandInto{From: "b", To: "c", Et: h.Knows, Dir: catalog.Out,
					DstLabel: h.Person, SrcLabel: h.Person}},
				countSum("c")...)
		}},
		{"intersect/diamond", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), knows("b", "d"),
				&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{side("a", catalog.Out), side("d", catalog.In)}}),
				countSum("c")...)
		}},
		{"intersect/three-way-clique", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"),
				&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{side("a", catalog.Out), side("b", catalog.Out)}},
				&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
					side("a", catalog.Out), side("b", catalog.Out), side("c", catalog.Out)}}),
				countSum("d")...)
		}},
		{"intersect/sibling-flat", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), knows("a", "c"),
				&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{side("b", catalog.Out), side("c", catalog.Out)}}),
				countSum("d")...)
		}},
		{"intersect/any-label", false, func() plan.Plan {
			likes := func(v string) op.IntersectSide {
				return op.IntersectSide{Var: v, Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel, SrcLabel: h.Person}
			}
			return append(plan.Plan{scan("a"), knows("a", "b"),
				&op.ExpandIntersect{To: "m", Sides: []op.IntersectSide{likes("a"), likes("b")}}},
				countSum("m")...)
		}},

		// Property reads: shared columns, bulk gather, dictionary codes, zone
		// maps, and the overlay-patched gather on the views that carry one.
		{"gather/scan-filter-project", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "gender", As: "p.gender"},
					{Var: "p", Prop: "creationDate", As: "p.creationDate"},
					{Var: "p", Prop: "firstName", As: "p.firstName"},
					{Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.Eq(expr.C("p.gender"), expr.LStr("female"))},
				&op.Filter{Pred: expr.Ge(expr.C("p.creationDate"), expr.LDate(midDate()))},
				&op.Defactor{Cols: []string{"p.id", "p.firstName", "p.creationDate"}},
			}
		}},
		{"gather/never-interned-literal", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "gender", As: "p.gender"}, {Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.Ne(expr.C("p.gender"), expr.LStr("no-such-gender"))},
				&op.Defactor{Cols: []string{"p.id"}},
			}
		}},
		{"gather/fused-expand-pred", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(genderAndDate, nil)},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"f.id"}},
			}
		}},
		{"gather/lazy-column-props", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "f", Prop: "firstName", As: "f.firstName"},
					{Var: "f", Prop: "creationDate", As: "f.creationDate"}}},
				&op.Defactor{Cols: []string{"f.firstName", "f.creationDate"}},
			}
		}},
		// Gather, the int filter kernel and the de-factor over a node past the
		// morsel threshold.
		{"gather/second-hop-project-filter-defactor", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "f", As: "f.id", ExtID: true},
					{Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Filter{Pred: expr.Le(expr.C("f.id"), expr.LInt(midID(ds)))},
				&op.Defactor{Cols: []string{"f.id", "f.firstName"}},
			}
		}},
		{"gather/top-k", true, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "creationDate", As: "p.creationDate"},
					{Var: "p", Prop: "firstName", As: "p.firstName"},
					{Var: "p", As: "p.id", ExtID: true}}},
				&op.OrderBy{
					Keys:  []op.SortKey{{Col: "p.creationDate", Desc: true}, {Col: "p.firstName"}, {Col: "p.id"}},
					Limit: 17,
					Cols:  []string{"p.id", "p.firstName", "p.creationDate"}},
			}
		}},
		{"gather/dict-group-by", true, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "browserUsed", As: "p.browserUsed"}}},
				&op.AggregateProjectTop{
					GroupBy: []string{"p.browserUsed"},
					Aggs:    []op.AggSpec{{Func: op.Count, As: "n"}},
					Keys:    []op.SortKey{{Col: "n", Desc: true}, {Col: "p.browserUsed"}},
					Limit:   10},
			}
		}},

		// Aggregation over the f-Tree: COUNT(*) anchors at the root, arguments
		// and group keys on one node fold that node weighted, anything spanning
		// nodes — and a float SUM/AVG, which must add in enumeration order —
		// streams the enumeration into the group table.
		{"agg/count-star-two-hop", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{count}})
		}},
		{"agg/count-star-var-length", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.VarLengthExpand{From: "p", To: "r", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 2, Distinct: true},
				&op.Aggregate{Aggs: []op.AggSpec{count}}}
		}},
		{"agg/sum-leaf", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{agg(op.Sum, "g.id")}})
		}},
		{"agg/group-by-middle", false, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "f.id")}})
		}},
		{"agg/group-by-middle-sum-leaf", false, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "g.id")}})
		}},
		{"agg/min-max-avg-distinct", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{agg(op.Min, "g.id"), agg(op.Max, "g.id"),
				agg(op.Avg, "g.id"), agg(op.CountDistinct, "g.id")}})
		}},
		{"agg/empty-input", false, func() plan.Plan {
			return twoHop(&op.Filter{Pred: expr.Lt(expr.C("p.id"), expr.LInt(0))},
				&op.Aggregate{Aggs: []op.AggSpec{count, agg(op.Min, "g.id"), agg(op.Sum, "g.id")}})
		}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) { paritytest.Sweep(t, views, sh.build, sh.ordered) })
	}

	// Rows whose answer depends on the order a view lists neighbors in, so
	// each view is checked against the oracle on its own. LIMIT without ORDER
	// BY de-factors only its columns and stops after SKIP + LIMIT tuples.
	limit := func(n, skip int) func() plan.Plan {
		return func() plan.Plan { return twoHop(&op.Limit{N: n, Skip: skip, Cols: []string{"g.id", "p.id"}}) }
	}
	perView := []struct {
		name  string
		rows  int // -1: not pinned
		build func() plan.Plan
	}{
		{"agg/float-sum", -1, func() plan.Plan {
			return twoHop(
				// On the middle node, where a row stands for several tuples.
				&op.ProjectExpr{Expr: expr.Arith{Op: expr.Mul, L: expr.C("f.id"), R: expr.Lit{Val: vector.Float64(0.1)}},
					As: "f.w", Kind: vector.KindFloat64},
				&op.Aggregate{Aggs: []op.AggSpec{agg(op.Sum, "f.w"), agg(op.Avg, "f.w")}})
		}},
		{"limit/zero", 0, limit(0, 0)},
		{"limit/one", 1, limit(1, 0)},
		{"limit/skip-window", 50, limit(50, 100)},
		{"limit/skip-past-end", 0, limit(5, 1<<30)},
	}
	for _, sh := range perView {
		sh := sh
		t.Run(sh.name, func(t *testing.T) { paritytest.SweepViews(t, views, sh.build, sh.rows) })
	}
}

// TestParityViewsReachFallbacks pins the premise of the table above: the
// views differ in exactly the observable conditions the operators branch on.
func TestParityViewsReachFallbacks(t *testing.T) {
	ds, views := parityViews(t)
	h := ds.H
	want := map[string]struct{ sorted, shared bool }{
		"sealed":        {true, true},
		"unsealed":      {false, false},
		"delta-overlay": {true, false},
		"txn-overlay":   {false, false},
	}
	for _, v := range views {
		var b storage.Batch
		v.View.NeighborsBatch(v.View.ScanLabel(h.Person), h.Knows, catalog.Out, h.Person, false, &b)
		// The "second-hop" and "two-hop" rows shard only if every person's
		// friends together pass the 512-row threshold.
		if len(b.VIDs) < 512 {
			t.Fatalf("%s: %d KNOWS edges; the second-hop rows would run as one shard", v.Name, len(b.VIDs))
		}
		if w := want[v.Name]; b.Sorted != w.sorted || b.Shared != w.shared {
			t.Errorf("%s: KNOWS batch Sorted=%v Shared=%v, want %v/%v", v.Name, b.Sorted, b.Shared, w.sorted, w.shared)
		}
	}
}
