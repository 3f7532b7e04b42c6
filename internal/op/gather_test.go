package op_test

import (
	"testing"

	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
)

// TestGatherPathEngages pins the instrumentation the parity table cannot
// see: on a sealed base graph a scan-ordered projection shares the storage
// columns zero-copy, and the string and date filters over them keep some
// rows. (That every tier returns the oracle's rows is TestOperatorParity's
// job.)
func TestGatherPathEngages(t *testing.T) {
	ds, err := driver.SharedDataset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	h := ds.H
	res, err := exec.New(exec.ModeFactorized).Run(ds.Graph, plan.Plan{
		&op.NodeScan{Var: "p", Label: h.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "p", Prop: "gender", As: "p.gender"},
			{Var: "p", Prop: "creationDate", As: "p.creationDate"},
			{Var: "p", As: "p.id", ExtID: true},
		}},
		&op.Filter{Pred: expr.Eq(expr.C("p.gender"), expr.LStr("female"))},
		&op.Filter{Pred: expr.Ge(expr.C("p.creationDate"), expr.LDate(midDate()))},
		&op.Defactor{Cols: []string{"p.id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gathers < 3 || res.SharedCols < 2 {
		t.Fatalf("gathers=%d sharedCols=%d, want >=3 batch gathers of which >=2 zero-copy shares", res.Gathers, res.SharedCols)
	}
	if res.Block.NumRows() == 0 {
		t.Fatal("plan produced no rows; test is vacuous")
	}
}
