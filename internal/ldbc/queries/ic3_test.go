package queries_test

import (
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
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

// TestIC3MatchesJoinReference holds the one-pass IC3 to the two-pass join
// plan over 200 parameter draws at simSF 1: the same rows in the same order,
// under the fused and the factorized engine.
func TestIC3MatchesJoinReference(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ic3, err := queries.ByName("IC3")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []exec.Mode{exec.ModeFused, exec.ModeFactorized} {
		r := queries.NewRunner(ds, mode, nil)
		pg := ds.NewParamGen(1)
		nonEmpty := 0
		for draw := 0; draw < 200; draw++ {
			params := ic3.GenParams(ds, pg)
			got, _, err := r.Execute(ic3, params)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := r.Engine.Run(ds.Graph, ic3JoinReference(ds.H, params))
			if err != nil {
				t.Fatal(err)
			}
			if want := blockRows(ref.Block); !reflect.DeepEqual(blockRows(got), want) {
				t.Fatalf("%s draw %d %v:\n one pass %v\n join     %v", mode, draw, params, blockRows(got), want)
			}
			if got.NumRows() > 0 {
				nonEmpty++
			}
		}
		// The comparison means little if almost every draw is empty.
		if nonEmpty < 20 {
			t.Fatalf("%s: only %d of 200 draws returned rows", mode, nonEmpty)
		}
	}
}
