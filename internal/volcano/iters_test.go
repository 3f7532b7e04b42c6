package volcano_test

import (
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/testgraph"
	"ges/internal/volcano"
)

// runBoth executes the same plan on volcano and the factorized engine and
// requires identical results — a harness for iterator unit coverage.
func runBoth(t *testing.T, p plan.Plan) []string {
	t.Helper()
	f := testgraph.New()
	a, err := volcano.New().Run(f.Graph, p)
	if err != nil {
		t.Fatalf("volcano: %v", err)
	}
	b, err := exec.New(exec.ModeFactorized).Run(f.Graph, p)
	if err != nil {
		t.Fatalf("ges: %v", err)
	}
	got, want := rows(a.Block), rows(b.Block)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engines disagree:\n volcano %v\n ges     %v", got, want)
	}
	return got
}

func TestVolcanoLimitSkip(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	out := runBoth(t, plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "id", ExtID: true}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "id"}}},
		&op.Limit{N: 3, Skip: 4},
	})
	if len(out) != 3 {
		t.Fatalf("rows = %v", out)
	}
}

func TestVolcanoDistinctAndNarrow(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	out := runBoth(t, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.Expand{From: "p", To: "a", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "b", As: "b.id", ExtID: true}}},
		&op.Distinct{Cols: []string{"b.id"}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "b.id"}}},
	})
	if len(out) != 4 { // {100, 104, 105, 106}
		t.Fatalf("distinct 2-hop = %v", out)
	}
}

func TestVolcanoFilterAndExpr(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	runBoth(t, plan.Plan{
		&op.NodeScan{Var: "m", Label: s.Post},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "m", Prop: "length", As: "len"}}},
		&op.Filter{Pred: expr.Gt(expr.C("len"), expr.LInt(120))},
		&op.ProjectExpr{Expr: expr.Arith{Op: expr.Mul, L: expr.C("len"), R: expr.LInt(2)}, As: "dbl", Kind: 1},
		&op.OrderBy{Keys: []op.SortKey{{Col: "dbl", Desc: true}}},
	})
}

func TestVolcanoEdgePropsOnScanRoot(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	out := runBoth(t, plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
			EdgeProps: []op.EdgeProj{{Prop: "creationDate", As: "since"}}},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "since", Desc: true}, {Col: "f.id"}}},
	})
	if len(out) == 0 {
		t.Fatal("no KNOWS edge out of any person")
	}
}

func TestVolcanoVarLengthAndAggregate(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	out := runBoth(t, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, MinHops: 1, MaxHops: 2},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "lastName", As: "ln"}}},
		&op.Aggregate{GroupBy: []string{"ln"}, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
	})
	if len(out) != 1 {
		t.Fatalf("groups = %v", out)
	}
}

func TestVolcanoUnknownColumnErrors(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	_, err := volcano.New().Run(f.Graph, plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.Expand{From: "ghost", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
	})
	if err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestVolcanoMaxRows(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	e := volcano.New()
	e.MaxRows = 2
	_, err := e.Run(f.Graph, plan.Plan{&op.NodeScan{Var: "p", Label: s.Person}})
	if err == nil {
		t.Fatal("row limit not enforced")
	}
}

func TestVolcanoEmptyPlan(t *testing.T) {
	f := testgraph.New()
	if _, err := volcano.New().Run(f.Graph, nil); err == nil {
		t.Fatal("empty plan must fail")
	}
}
