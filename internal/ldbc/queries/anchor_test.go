package queries_test

import (
	"fmt"
	"reflect"
	"testing"

	"ges/internal/catalog"
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

// ic3JoinReference is IC3 as two traversals joined on the friend: each side
// counts, per friend, the messages located in one country, and an inner
// hash join keeps the friends both sides count. It is the reference the
// one-pass plan must reproduce row for row.
func ic3JoinReference(h *ldbc.Handles, p queries.Params) plan.Plan {
	side := func(country, cntCol string) []op.Operator {
		return []op.Operator{
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
	right := append(side(p.Str("countryY"), "yCount"),
		&op.ProjectExpr{Expr: expr.C("f.id"), As: "fy.id", Kind: vector.KindInt64},
		&op.Defactor{Cols: []string{"fy.id", "yCount"}})
	return append(plan.Plan(side(p.Str("countryX"), "xCount")),
		&op.HashJoin{Type: op.Inner, LeftKeys: []string{"f.id"}, RightKeys: []string{"fy.id"}, Right: right},
		&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.C("xCount"), R: expr.C("yCount")},
			As: "total", Kind: vector.KindInt64},
		&op.OrderBy{
			Keys:  []op.SortKey{{Col: "total", Desc: true}, {Col: "f.id"}},
			Limit: 20,
			Cols:  []string{"f.id", "xCount", "yCount", "total"},
		},
	)
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
// with a plan that reads it forward from the person.
var anchoredReferences = []struct {
	name string
	ref  func(*ldbc.Handles, queries.Params) plan.Plan
}{
	{"IC3", ic3JoinReference},
	{"IC6", ic6ForwardReference},
	{"IC11", ic11ForwardReference},
}

// TestAnchoredPlansMatchReferences holds IC3, IC6 and IC11 — which start at
// the named country or tag and check the friend with a hop-bounded
// ExpandInto — to their references over 200 parameter draws at simSF 1: the
// same rows in the same order, under the fused and the factorized engine.
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
					ref, err := r.Engine.Run(ds.Graph, c.ref(ds.H, params))
					if err != nil {
						t.Fatal(err)
					}
					if want := blockRows(ref.Block); !reflect.DeepEqual(blockRows(got), want) {
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

// TestAnchoredPlansSweepViews runs the served IC3, IC6 and IC11 plans
// through the parity sweep — every engine mode × 1/2/4/8 workers × the four
// physical representations of one LDBC graph (commits and a created person
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
