package op_test

import (
	"fmt"
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// triangleFixture is the standard fixture plus two extra symmetric KNOWS
// edges that create triangles: p0-p1-p2 and p2-p4-p5.
func triangleFixture(t *testing.T) *testgraph.Fixture {
	t.Helper()
	f := testgraph.New()
	s := f.Schema
	for _, e := range [][2]int{{1, 2}, {4, 5}} {
		a, b := f.Persons[e[0]], f.Persons[e[1]]
		if err := f.Graph.AddEdge(s.Knows, a, b, vector.Date(21000)); err != nil {
			t.Fatal(err)
		}
		if err := f.Graph.AddEdge(s.Knows, b, a, vector.Date(21000)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// bruteTriangles enumerates (a,b,c) ext-ID triples with a→b→c→a over KNOWS
// by one-source adjacency walks — the reference the operator must reproduce.
func bruteTriangles(f *testgraph.Fixture) []string {
	s := f.Schema
	g := f.Graph
	adj := func(v vector.VID) []vector.VID {
		return testgraph.NeighborVIDs(g, v, s.Knows, catalog.Out, s.Person)
	}
	has := func(v, w vector.VID) bool {
		for _, x := range adj(v) {
			if x == w {
				return true
			}
		}
		return false
	}
	var rows []string
	for _, a := range f.Persons {
		for _, b := range adj(a) {
			for _, c := range adj(b) {
				if has(c, a) {
					rows = append(rows, fmt.Sprintf("%d|%d|%d|", g.ExtID(a), g.ExtID(b), g.ExtID(c)))
				}
			}
		}
	}
	return sortedCopy(rows)
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func trianglePlan(s *testgraph.Schema) plan.Plan {
	return plan.Plan{
		&op.NodeScan{Var: "a", Label: s.Person},
		&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.Expand{From: "b", To: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ExpandInto{From: "c", To: "a", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, SrcLabel: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "a", As: "a.id", ExtID: true},
			{Var: "b", As: "b.id", ExtID: true},
			{Var: "c", As: "c.id", ExtID: true},
		}},
		&op.Defactor{Cols: []string{"a.id", "b.id", "c.id"}},
	}
}

// TestExpandIntoTriangles checks the semi-join against brute force and the
// volcano oracle in every engine mode, on a graph sealed
// explicitly and on one its first read seals — all must produce the identical
// multiset.
func TestExpandIntoTriangles(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := triangleFixture(t)
		if sealed {
			f.Graph.SealCSR()
		}
		want := bruteTriangles(f)
		if len(want) == 0 {
			t.Fatal("fixture has no triangles; test is vacuous")
		}
		checkRows(t, f.Graph, func() plan.Plan { return trianglePlan(f.Schema) },
			want, fmt.Sprintf("sealed=%v", sealed))
	}
}

// TestExpandIntoReversedProbe exercises the shallow-side=To orientation: the
// cycle closes c→a where a sits above c in the tree, so the operator probes
// a's reversed (In) adjacency against the SrcLabel family.
func TestExpandIntoReversedProbe(t *testing.T) {
	f := triangleFixture(t)
	s := f.Schema
	// Make the pattern non-vacuous: p4 created m3 and likes it; p2 created
	// m1, m2 and likes m1.
	if err := f.Graph.AddEdge(s.Likes, f.Persons[4], f.Posts[3], vector.Date(21500)); err != nil {
		t.Fatal(err)
	}
	if err := f.Graph.AddEdge(s.Likes, f.Persons[2], f.Posts[1], vector.Date(21501)); err != nil {
		t.Fatal(err)
	}
	f.Graph.SealCSR()
	// HAS_CREATOR is asymmetric (message→person), so direction matters:
	// a post's creator who likes the post = (m)-[:HAS_CREATOR]->(p) with
	// (p)-[:LIKES]->(m) closing the cycle.
	build := plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.Expand{From: "p", To: "m", Et: s.Likes, Dir: catalog.Out, DstLabel: s.Post},
		&op.ExpandInto{From: "m", To: "p", Et: s.HasCreator, Dir: catalog.Out,
			DstLabel: s.Person, SrcLabel: s.Post},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "p", As: "p.id", ExtID: true},
			{Var: "m", As: "m.id", ExtID: true},
		}},
		&op.Defactor{Cols: []string{"p.id", "m.id"}},
	}
	// Brute force: likes edges whose target's creator is the liker.
	g := f.Graph
	var want []string
	for _, p := range f.Persons {
		for _, m := range testgraph.NeighborVIDs(g, p, s.Likes, catalog.Out, s.Post) {
			for _, c := range testgraph.NeighborVIDs(g, m, s.HasCreator, catalog.Out, s.Person) {
				if c == p {
					want = append(want, fmt.Sprintf("%d|%d|", g.ExtID(p), g.ExtID(m)))
				}
			}
		}
	}
	want = sortedCopy(want)
	if len(want) == 0 {
		t.Fatal("reversed-probe pattern has no matches; test is vacuous")
	}
	for _, mode := range modes {
		fb := run(t, f, mode, build)
		if got := rowsAsStrings(fb); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", mode, got, want)
		}
	}
}

// TestExpandIntoSiblingFallback puts From and To on sibling f-Tree nodes,
// where the semi-join cannot run as a selection filter and must de-factor.
func TestExpandIntoSiblingFallback(t *testing.T) {
	f := triangleFixture(t)
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "a", Label: s.Person},
			&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Expand{From: "a", To: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ExpandInto{From: "b", To: "c", Et: s.Knows, Dir: catalog.Out,
				DstLabel: s.Person, SrcLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "a", As: "a.id", ExtID: true},
				{Var: "b", As: "b.id", ExtID: true},
				{Var: "c", As: "c.id", ExtID: true},
			}},
			&op.Defactor{Cols: []string{"a.id", "b.id", "c.id"}},
		}
	}
	fb := assertModesAgree(t, f, build)
	want := bruteTriangles(f)
	if got := rowsAsStrings(fb); !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling fallback:\n got %v\nwant %v", got, want)
	}
}

// TestExpandIntoEmptyInput: a scan of a label with no cyclic edges prunes to
// zero rows without error.
func TestExpandIntoNoMatches(t *testing.T) {
	f := testgraph.New() // no triangles in the base fixture
	s := f.Schema
	fb := run(t, f, exec.ModeFactorized, trianglePlan(s))
	if fb.NumRows() != 0 {
		t.Fatalf("base fixture has no triangles, got %d rows", fb.NumRows())
	}
}
