package bench

import (
	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/plan"
)

// Hand-built micro-workload plans over the LDBC schema, shared by the CI
// smoke benchmarks (root bench_test.go) and this package's tests. Each
// isolates one read path behind a tiny aggregate, so a measurement is the
// path and not result materialization. Per-layer timings of the same paths
// under real traffic live in the repository benchmark (benchmark/:
// storage.gather_ns_per_value, storage.neighbors_batch_ns_per_edge.*,
// storage.intersect_ns_per_probe, storage.pool_hit_ratio).

// countOnly is the fused global count every expansion workload ends in.
func countOnly() op.Operator {
	return &op.AggregateProjectTop{
		Aggregate: op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		Keys:      []op.SortKey{{Col: "n"}},
		Limit:     1,
	}
}

// countSum closes a cyclic pattern with a divergence-sensitive aggregate:
// the match count plus a Sum over one variable's external id, so a single
// wrong vertex anywhere shows in a cross-check.
func countSum(v string) []op.Operator {
	return []op.Operator{
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: "v.id", ExtID: true}}},
		&op.Aggregate{Aggs: []op.AggSpec{
			{Func: op.Count, As: "n"},
			{Func: op.Sum, Arg: "v.id", As: "sum"},
		}},
	}
}

func knows(h *ldbc.Handles, from, to string) *op.Expand {
	return &op.Expand{From: from, To: to, Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person}
}

func knowsSide(h *ldbc.Handles, v string, dir catalog.Direction) op.IntersectSide {
	return op.IntersectSide{Var: v, Et: h.Knows, Dir: dir, DstLabel: h.Person}
}

// GatherScanPlan is the property-read workload: a string-equality filter
// over the comment table (the largest string-bearing label) with a date
// range behind it. Both storage columns are shared zero-copy, the string
// compare runs on dictionary codes and the date filter on the 64-row range
// kernel.
func GatherScanPlan(ds *ldbc.Dataset) plan.Plan {
	h := ds.H
	return plan.Plan{
		&op.NodeScan{Var: "c", Label: h.Comment},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "c", Prop: "browserUsed", As: "c.browserUsed"},
			{Var: "c", Prop: "creationDate", As: "c.creationDate"},
		}},
		&op.Filter{Pred: expr.Eq(expr.C("c.browserUsed"), expr.LStr("Chrome"))},
		&op.Filter{Pred: expr.Ge(expr.C("c.creationDate"), expr.LDate((ldbc.DayStart+ldbc.DayEnd)/2))},
		&op.AggregateProjectTop{
			Aggregate: op.Aggregate{GroupBy: []string{"c.browserUsed"}, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
			Keys:      []op.SortKey{{Col: "n", Desc: true}},
			Limit:     1,
		},
	}
}

// CSRExpandPlan is the batched-expand workload: a full-scan two-hop KNOWS
// count, one NeighborsBatch per expand over the sealed CSR.
func CSRExpandPlan(ds *ldbc.Dataset) plan.Plan {
	h := ds.H
	return plan.Plan{&op.NodeScan{Var: "p", Label: h.Person}, knows(h, "p", "f"), knows(h, "f", "g"), countOnly()}
}

// CSRTrianglePlan is the cyclic-join workload: directed KNOWS triangles
// closed by ExpandInto as a selection on the factorized tree.
func CSRTrianglePlan(ds *ldbc.Dataset) plan.Plan {
	h := ds.H
	return append(plan.Plan{
		&op.NodeScan{Var: "a", Label: h.Person}, knows(h, "a", "b"), knows(h, "b", "c"),
		&op.ExpandInto{From: "c", To: "a", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person, SrcLabel: h.Person},
	}, countSum("c")...)
}

// WCOJPatterns are the cyclic patterns the multiway intersection
// (op.ExpandIntersect) serves, each counting matches over LDBC KNOWS.
var WCOJPatterns = []struct {
	Name  string
	Build func(ds *ldbc.Dataset) plan.Plan
}{
	// a→b→c→a: c intersects b's out- with a's in-neighbors.
	{"Triangle", func(ds *ldbc.Dataset) plan.Plan {
		h := ds.H
		return append(plan.Plan{&op.NodeScan{Var: "a", Label: h.Person}, knows(h, "a", "b"),
			&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
				knowsSide(h, "b", catalog.Out), knowsSide(h, "a", catalog.In)}},
		}, countSum("c")...)
	}},
	// a→b→d, a→c→d: c intersects a's out- with d's in-neighbors.
	{"Diamond", func(ds *ldbc.Dataset) plan.Plan {
		h := ds.H
		return append(plan.Plan{&op.NodeScan{Var: "a", Label: h.Person}, knows(h, "a", "b"), knows(h, "b", "d"),
			&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
				knowsSide(h, "a", catalog.Out), knowsSide(h, "d", catalog.In)}},
		}, countSum("c")...)
	}},
	// a→b→c→d→a: d intersects c's out- with a's in-neighbors.
	{"FourCycle", func(ds *ldbc.Dataset) plan.Plan {
		h := ds.H
		return append(plan.Plan{&op.NodeScan{Var: "a", Label: h.Person}, knows(h, "a", "b"), knows(h, "b", "c"),
			&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
				knowsSide(h, "c", catalog.Out), knowsSide(h, "a", catalog.In)}},
		}, countSum("d")...)
	}},
	// All six edges oriented by discovery order: two stacked intersections,
	// the second three-way.
	{"FourClique", func(ds *ldbc.Dataset) plan.Plan {
		h := ds.H
		return append(plan.Plan{&op.NodeScan{Var: "a", Label: h.Person}, knows(h, "a", "b"),
			&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
				knowsSide(h, "a", catalog.Out), knowsSide(h, "b", catalog.Out)}},
			&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
				knowsSide(h, "a", catalog.Out), knowsSide(h, "b", catalog.Out), knowsSide(h, "c", catalog.Out)}},
		}, countSum("d")...)
	}},
}
