package txn_test

import (
	"fmt"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/txn"
	"ges/internal/vector"
	"ges/internal/volcano"
)

// TestRawGraphAnswersCreatedVertices: the graph's own view reaches a vertex a
// transaction created through its committed edges, and answers it like a
// base vertex: the commit appended its row — external id and properties —
// to the graph. Scalar calls, a flat-mode engine run and the volcano oracle
// all project the new neighbour's id, name and creation date.
func TestRawGraphAnswersCreatedVertices(t *testing.T) {
	f := testgraph.New()
	s, g := f.Schema, f.Graph
	m := txn.NewManager(g)
	p0 := f.Persons[0]
	tx := m.Begin([]vector.VID{p0})
	nv, err := tx.AddVertex(s.Person, 555, vector.String_("Zed"), vector.String_("New"), vector.Date(20001))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(s.Knows, p0, nv, vector.Date(20002)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	friends := testgraph.NeighborVIDs(g, p0, s.Knows, catalog.Out, storage.AnyLabel)
	if want := []vector.VID{f.Persons[1], f.Persons[2], f.Persons[3], nv}; fmt.Sprint(friends) != fmt.Sprint(want) {
		t.Fatalf("raw graph KNOWS of p0 = %v, want %v", friends, want)
	}
	if ext := g.ExtID(nv); ext != 555 {
		t.Fatalf("raw ExtID of a created vertex = %d, want 555", ext)
	}
	if v := g.Prop(nv, s.PFirstName); v != vector.String_("Zed") {
		t.Fatalf("raw Prop of a created vertex = %#v, want Zed", v)
	}
	if v := g.Prop(nv, s.PCreation); v != vector.Date(20001) {
		t.Fatalf("raw Prop of a created vertex = %#v, want its creation date", v)
	}

	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", As: "f.id", ExtID: true}, {Var: "f", Prop: "firstName", As: "f.firstName"},
				{Var: "f", Prop: "creationDate", As: "f.creationDate"}}},
			&op.Defactor{Cols: []string{"f.id", "f.firstName", "f.creationDate"}},
		}
	}
	want := fmt.Sprint([][]string{
		{"101", "Bob", vector.Date(19001).String()}, {"102", "Cyn", vector.Date(19002).String()},
		{"103", "Dan", vector.Date(19003).String()}, {"555", "Zed", vector.Date(20001).String()}})
	flat, err := exec.New(exec.ModeFlat).Run(g, build())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := volcano.New().Run(g, build())
	if err != nil {
		t.Fatal(err)
	}
	for name, fb := range map[string][][]vector.Value{"flat": flat.Block.Rows, "volcano": oracle.Block.Rows} {
		var rows [][]string
		for _, row := range fb {
			rows = append(rows, []string{row[0].String(), row[1].String(), row[2].String()})
		}
		if got := fmt.Sprint(rows); got != want {
			t.Errorf("%s over the raw graph: %s, want %s", name, got, want)
		}
	}
}
