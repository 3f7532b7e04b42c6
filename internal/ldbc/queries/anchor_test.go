package queries_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// reference computes a query's rows from plans the engine runs (run); a
// join between their results is done here, in test code.
type reference func(run func(plan.Plan) *core.FlatBlock, h *ldbc.Handles, p queries.Params) *core.FlatBlock

// planReference is a reference that is one plan.
func planReference(build func(*ldbc.Handles, queries.Params) plan.Plan) reference {
	return func(run func(plan.Plan) *core.FlatBlock, h *ldbc.Handles, p queries.Params) *core.FlatBlock {
		return run(build(h, p))
	}
}

// ranked orders rows by column by, descending, then by column tie, and keeps
// the first limit — the OrderBy that ends each joined reference.
func ranked(rows [][]vector.Value, by, tie, limit int) *core.FlatBlock {
	sort.SliceStable(rows, func(i, j int) bool {
		if c := vector.Compare(rows[i][by], rows[j][by]); c != 0 {
			return c > 0
		}
		return vector.Compare(rows[i][tie], rows[j][tie]) < 0
	})
	return &core.FlatBlock{Rows: rows[:min(limit, len(rows))]}
}

// counts maps a two-column (id, count) result's ids to their counts.
func counts(fb *core.FlatBlock) map[int64]int64 {
	m := make(map[int64]int64, fb.NumRows())
	for _, r := range fb.Rows {
		m[r[0].I] = r[1].I
	}
	return m
}

// ic3JoinReference is IC3 as two traversals joined on the friend: each side
// counts, per friend, the messages located in one country, and an inner
// join keeps the friends both sides count.
func ic3JoinReference(run func(plan.Plan) *core.FlatBlock, h *ldbc.Handles, p queries.Params) *core.FlatBlock {
	side := func(country, cntCol string) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: p.Int("personId")},
			&op.VarLengthExpand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out,
				DstLabel: h.Person, MinHops: 1, MaxHops: 2},
			&op.Expand{From: "f", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.Expand{From: "msg", To: "ctry", Et: h.IsLocatedIn, Dir: catalog.Out, DstLabel: h.Country},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "ctry", Prop: "name", As: "ctry.name"},
				{Var: "f", As: "f.id", ExtID: true},
			}},
			&op.Filter{Pred: expr.Eq(expr.C("ctry.name"), expr.LStr(country))},
			&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{{Func: op.Count, As: cntCol}}},
		}
	}
	yCount := counts(run(side(p.Str("countryY"), "yCount")))
	var rows [][]vector.Value
	for _, r := range run(side(p.Str("countryX"), "xCount")).Rows {
		if y, ok := yCount[r[0].I]; ok {
			rows = append(rows, []vector.Value{r[0], r[1], vector.Int64(y), vector.Int64(r[1].I + y)})
		}
	}
	return ranked(rows, 3, 0, 20)
}

// ic4JoinReference is IC4 as two traversals of the friends' posts: the tags
// of the posts in the window, counted, and an anti-join dropping the tags of
// the posts before it.
func ic4JoinReference(run func(plan.Plan) *core.FlatBlock, h *ldbc.Handles, p queries.Params) *core.FlatBlock {
	tags := func(pred expr.Expr, tail op.Operator) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: p.Int("personId")},
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			&op.Expand{From: "f", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "post", Prop: "creationDate", As: "post.creationDate"}}},
			&op.Filter{Pred: pred},
			&op.Expand{From: "post", To: "t", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t", Prop: "name", As: "t.name"}}},
			tail,
		}
	}
	date := expr.C("post.creationDate")
	start, end := expr.LDate(p.Int("startDate")), expr.LDate(p.Int("endDate"))
	old := map[string]bool{}
	for _, r := range run(tags(expr.Lt(date, start), &op.Distinct{Cols: []string{"t.name"}})).Rows {
		old[r[0].S] = true
	}
	var rows [][]vector.Value
	window := tags(expr.And{L: expr.Ge(date, start), R: expr.Lt(date, end)},
		&op.Aggregate{GroupBy: []string{"t.name"}, Aggs: []op.AggSpec{{Func: op.Count, As: "postCount"}}})
	for _, r := range run(window).Rows {
		if !old[r[0].S] {
			rows = append(rows, r)
		}
	}
	return ranked(rows, 1, 0, 10)
}

// ic10JoinReference is IC10 as three traversals joined on the friend: the
// friends two hops away born in the month, left-outer-joined with the
// interest-tagged posts counted per creator and the posts counted per
// friend; a missing count is 0.
func ic10JoinReference(run func(plan.Plan) *core.FlatBlock, h *ldbc.Handles, p queries.Params) *core.FlatBlock {
	seek := &op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: p.Int("personId")}
	twoHops := func(v string) op.Operator {
		return &op.VarLengthExpand{From: "p", To: v, Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person, MinHops: 2, MaxHops: 2}
	}
	birthday := expr.C("foaf.birthday")
	month := expr.Arith{Op: expr.Add,
		L: expr.Arith{Op: expr.Div,
			L: expr.Arith{Op: expr.Sub, L: birthday,
				R: expr.Arith{Op: expr.Mul, L: expr.Arith{Op: expr.Div, L: birthday, R: expr.LInt(372)}, R: expr.LInt(372)}},
			R: expr.LInt(31)},
		R: expr.LInt(1)}
	foafs := run(plan.Plan{seek, twoHops("foaf"),
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "foaf", As: "foaf.id", ExtID: true},
			{Var: "foaf", Prop: "firstName", As: "foaf.firstName"},
			{Var: "foaf", Prop: "birthday", As: "foaf.birthday"},
		}},
		&op.ProjectExpr{Expr: month, As: "bMonth", Kind: vector.KindInt64},
		&op.Filter{Pred: expr.Eq(expr.C("bMonth"), expr.LInt(p.Int("month")))},
		&op.Defactor{Cols: []string{"foaf.id", "foaf.firstName"}},
	})
	common := counts(run(plan.Plan{seek,
		&op.Expand{From: "p", To: "tag", Et: h.HasInterest, Dir: catalog.Out, DstLabel: h.Tag},
		&op.Expand{From: "tag", To: "post", Et: h.HasTag, Dir: catalog.In, DstLabel: h.Post},
		&op.Expand{From: "post", To: "creator", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "creator", As: "creator.id", ExtID: true}}},
		&op.Aggregate{GroupBy: []string{"creator.id"}, Aggs: []op.AggSpec{{Func: op.Count, As: "commonCount"}}},
	}))
	totals := counts(run(plan.Plan{seek, twoHops("foafT"),
		&op.Expand{From: "foafT", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "foafT", As: "foafT.id", ExtID: true}}},
		&op.Aggregate{GroupBy: []string{"foafT.id"}, Aggs: []op.AggSpec{{Func: op.Count, As: "totalPosts"}}},
	}))
	rows := make([][]vector.Value, len(foafs.Rows))
	for i, r := range foafs.Rows {
		rows[i] = append(r[:2:2], vector.Int64(2*common[r[0].I]-totals[r[0].I]))
	}
	return ranked(rows, 2, 0, 10)
}

// ic6ForwardReference is IC6 read forward from the person: every post of a
// friend within two hops, kept when one of its tags has the name.
func ic6ForwardReference(h *ldbc.Handles, p queries.Params) plan.Plan {
	return plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: p.Int("personId")},
		&op.VarLengthExpand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out,
			DstLabel: h.Person, MinHops: 1, MaxHops: 2},
		&op.Expand{From: "f", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
		&op.Expand{From: "post", To: "t1", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t1", Prop: "name", As: "t1.name"}}},
		&op.Filter{Pred: expr.Eq(expr.C("t1.name"), expr.LStr(p.Str("tagName")))},
		&op.Expand{From: "post", To: "t2", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t2", Prop: "name", As: "t2.name"}}},
		&op.Filter{Pred: expr.Ne(expr.C("t2.name"), expr.LStr(p.Str("tagName")))},
		&op.Aggregate{GroupBy: []string{"t2.name"}, Aggs: []op.AggSpec{{Func: op.Count, As: "postCount"}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "postCount", Desc: true}, {Col: "t2.name"}}, Limit: 10},
	}
}

// ic11ForwardReference is IC11 read forward from the person: every
// workplace of a friend within two hops, kept when it lies in the country.
func ic11ForwardReference(h *ldbc.Handles, p queries.Params) plan.Plan {
	return plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: p.Int("personId")},
		&op.VarLengthExpand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out,
			DstLabel: h.Person, MinHops: 1, MaxHops: 2},
		&op.Expand{From: "f", To: "org", Et: h.WorkAt, Dir: catalog.Out, DstLabel: h.Company,
			EdgeProps: []op.EdgeProj{{Prop: "workFrom", As: "workFrom"}}},
		&op.Filter{Pred: expr.Lt(expr.C("workFrom"), expr.LInt(p.Int("year")))},
		&op.Expand{From: "org", To: "ctry", Et: h.IsLocatedIn, Dir: catalog.Out, DstLabel: h.Country},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "ctry", Prop: "name", As: "ctry.name"}}},
		&op.Filter{Pred: expr.Eq(expr.C("ctry.name"), expr.LStr(p.Str("country")))},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "f", As: "f.id", ExtID: true},
			{Var: "f", Prop: "firstName", As: "f.firstName"},
			{Var: "org", Prop: "name", As: "org.name"},
		}},
		&op.OrderBy{
			Keys:  []op.SortKey{{Col: "workFrom"}, {Col: "f.id"}, {Col: "org.name", Desc: true}},
			Limit: 10,
			Cols:  []string{"f.id", "f.firstName", "org.name", "workFrom"},
		},
	}
}

// anchoredReferences pairs each query served from its named country or tag
// with a plan that reads it forward from the person, and each query served
// without a join with the traversals a join would combine.
var anchoredReferences = []struct {
	name string
	ref  reference
}{
	{"IC3", ic3JoinReference},
	{"IC6", planReference(ic6ForwardReference)},
	{"IC11", planReference(ic11ForwardReference)},
	{"IC4", ic4JoinReference},
	{"IC10", ic10JoinReference},
}

// TestAnchoredPlansMatchReferences holds IC3, IC6 and IC11 — which start at
// the named country or tag and check the friend with a hop-bounded
// ExpandInto — and IC4 and IC10 — one aggregate and two pattern counts in
// place of joins — to their references over 200 parameter draws at simSF 1:
// the same rows in the same order, under the fused and the factorized
// engine.
func TestAnchoredPlansMatchReferences(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range anchoredReferences {
		q, err := queries.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []exec.Mode{exec.ModeFused, exec.ModeFactorized} {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				r := queries.NewRunner(ds, mode, nil)
				pg := ds.NewParamGen(1)
				nonEmpty := 0
				for draw := 0; draw < 200; draw++ {
					params := q.GenParams(ds, pg)
					got, _, err := r.Execute(q, params)
					if err != nil {
						t.Fatal(err)
					}
					run := func(p plan.Plan) *core.FlatBlock {
						res, err := r.Engine.Run(ds.Graph, p)
						if err != nil {
							t.Fatal(err)
						}
						return res.Block
					}
					if want := blockRows(c.ref(run, ds.H, params)); !reflect.DeepEqual(blockRows(got), want) {
						t.Fatalf("draw %d %v:\n served    %v\n reference %v", draw, params, blockRows(got), want)
					}
					if got.NumRows() > 0 {
						nonEmpty++
					}
				}
				// The comparison means little if almost every draw is empty.
				if nonEmpty < 20 {
					t.Fatalf("only %d of 200 draws returned rows", nonEmpty)
				}
			})
		}
	}
}

// TestAnchoredPlansSweepViews runs the served IC3, IC6, IC11, IC4 and IC10 plans
// through the parity sweep — every engine mode × the four physical
// representations of one LDBC graph (commits and a created person
// included) — against the volcano oracle, for a few parameter draws each.
// Sweep fails a draw whose base view returns no data row, so every draw
// compares rows.
func TestAnchoredPlansSweepViews(t *testing.T) {
	ds, views := paritytest.LDBCViews(t, 0.05, 7)
	pg := ds.NewParamGen(5)
	for _, c := range anchoredReferences {
		q, err := queries.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 3; draw++ {
			params := q.GenParams(ds, pg)
			t.Run(fmt.Sprintf("%s/%d", c.name, draw), func(t *testing.T) {
				paritytest.Sweep(t, views, func() plan.Plan { return q.Build(ds.H, params) }, true)
			})
		}
	}
}
