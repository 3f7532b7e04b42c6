package op_test

import (
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/plan"
)

// midID returns a person-ID threshold selecting roughly half the persons
// (person external IDs are 1..P).
func midID(ds *ldbc.Dataset) int64 {
	return int64(ds.Stats().Persons / 2)
}

// runPlanAt executes the plan at the given parallelism degree.
func runPlanAt(t *testing.T, ds *ldbc.Dataset, mode exec.Mode, workers int, p plan.Plan) []string {
	t.Helper()
	eng := exec.New(mode)
	eng.Parallel = workers
	res, err := eng.Run(ds.Graph, p)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rowsAsStrings(res.Block)
}

// TestParallelVarExpandPredicateAgrees covers the former sequential fallback:
// a VarLengthExpand whose emissions a predicate then filters must take the
// parallel path and agree with sequential execution at Parallel=8.
func TestParallelVarExpandPredicateAgrees(t *testing.T) {
	ds, err := driver.SharedDataset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	h := ds.H
	buildPlan := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: h.Person},
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			&op.VarLengthExpand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out,
				DstLabel: h.Person, MinHops: 1, MaxHops: 2},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
			&op.Filter{Pred: expr.Le(expr.C("g.id"), expr.LInt(midID(ds)))},
			&op.Defactor{Cols: []string{"g.id"}},
		}
	}
	want := runPlanAt(t, ds, exec.ModeFactorized, 1, buildPlan())
	if len(want) == 0 {
		t.Fatal("predicate var-expand produced no rows")
	}
	got := runPlanAt(t, ds, exec.ModeFactorized, 8, buildPlan())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parallel=8 filtered var-expand diverges: %d vs %d rows", len(got), len(want))
	}
}
