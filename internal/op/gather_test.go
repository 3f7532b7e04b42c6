package op_test

import (
	"testing"

	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/vector"
)

// TestGatherPathEngages pins what the parity table cannot see: on a sealed
// base graph a scan-ordered projection is the storage column itself, shared
// zero-copy (ShareScanColumn), and the string and date filters over the
// shared columns keep some rows. (That every tier returns the oracle's rows
// is TestOperatorParity's job.)
func TestGatherPathEngages(t *testing.T) {
	ds, err := driver.SharedDataset(0.05)
	if err != nil {
		t.Fatal(err)
	}
	h := ds.H
	ctx := &op.Ctx{View: ds.Graph}
	ft, err := op.RunPlan(ctx, nil, []op.Operator{
		&op.NodeScan{Var: "p", Label: h.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "p", Prop: "gender", As: "p.gender"},
			{Var: "p", Prop: "creationDate", As: "p.creationDate"},
			{Var: "p", As: "p.id", ExtID: true},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := ft.Root.Block
	vids := b.ColumnByName("p").VIDs()
	for _, c := range []struct {
		as   string
		prop catalog.PropID
	}{{"p.gender", h.PGender}, {"p.creationDate", h.PCreation}} {
		share := ds.Graph.ShareScanColumn(h.Person, c.prop, vids)
		if share == nil {
			t.Fatalf("%s: the scan order does not share the storage column", c.as)
		}
		if !sameStorage(b.ColumnByName(c.as), share) {
			t.Fatalf("%s: projected column is a copy, want the storage column shared zero-copy", c.as)
		}
	}

	ft, err = op.RunPlan(ctx, ft, []op.Operator{
		&op.Filter{Pred: expr.Eq(expr.C("p.gender"), expr.LStr("female"))},
		&op.Filter{Pred: expr.Ge(expr.C("p.creationDate"), expr.LDate(midDate()))},
		&op.Defactor{Cols: []string{"p.id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Root.Sel.Count() == 0 {
		t.Fatal("plan produced no rows; test is vacuous")
	}
}

// sameStorage reports whether a and b read one backing array: the codes of a
// dictionary column, the values of an int or date one.
func sameStorage(a, b *vector.Column) bool {
	if a.DictEncoded() {
		ac, bc := a.Codes(), b.Codes()
		return len(ac) > 0 && len(ac) == len(bc) && &ac[0] == &bc[0]
	}
	ai, bi := a.Int64s(), b.Int64s()
	return len(ai) > 0 && len(ai) == len(bi) && &ai[0] == &bi[0]
}
