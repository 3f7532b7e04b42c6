package op_test

import (
	"fmt"
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/txn"
	"ges/internal/vector"
)

// cyclicFixture is the triangle fixture plus extra symmetric KNOWS edges so
// diamonds, 4-cycles, and 4-cliques all have matches: the clique {1,2,4,5}
// plus spokes 0-1 and 3-4.
func cyclicFixture(t *testing.T) *testgraph.Fixture {
	t.Helper()
	f := triangleFixture(t)
	s := f.Schema
	for _, e := range [][2]int{{1, 4}, {1, 5}, {2, 4}, {2, 5}, {0, 1}, {3, 4}} {
		a, b := f.Persons[e[0]], f.Persons[e[1]]
		if err := f.Graph.AddEdge(s.Knows, a, b, vector.Date(21100)); err != nil {
			t.Fatal(err)
		}
		if err := f.Graph.AddEdge(s.Knows, b, a, vector.Date(21100)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// knowsAdj / knowsHas are one-source reference walks over KNOWS.
func knowsAdj(f *testgraph.Fixture, v vector.VID) []vector.VID {
	s := f.Schema
	return testgraph.NeighborVIDs(f.Graph, v, s.Knows, catalog.Out, s.Person)
}

func knowsHas(f *testgraph.Fixture, v, w vector.VID) bool {
	for _, x := range knowsAdj(f, v) {
		if x == w {
			return true
		}
	}
	return false
}

// wcojTrianglePlan lists directed triangles a→b→c→a through one
// ExpandIntersect: c is the intersection of b's out- and a's in-adjacency.
func wcojTrianglePlan(s *testgraph.Schema) plan.Plan {
	return plan.Plan{
		&op.NodeScan{Var: "a", Label: s.Person},
		&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
			{Var: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			{Var: "a", Et: s.Knows, Dir: catalog.In, DstLabel: s.Person},
		}},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "a", As: "a.id", ExtID: true},
			{Var: "b", As: "b.id", ExtID: true},
			{Var: "c", As: "c.id", ExtID: true},
		}},
		&op.Defactor{Cols: []string{"a.id", "b.id", "c.id"}},
	}
}

// diamondPlans returns the WCOJ diamond plan (a→b, b→d, then c as the
// intersection of a's out- and d's in-adjacency) and the classical reference
// plan the binder would emit without lowering — Expand a→c on a sibling
// branch, then an ExpandInto that must de-factor into the flat hash join.
func diamondPlans(s *testgraph.Schema) (wcoj, flat plan.Plan) {
	tail := plan.Plan{
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "a", As: "a.id", ExtID: true},
			{Var: "b", As: "b.id", ExtID: true},
			{Var: "c", As: "c.id", ExtID: true},
			{Var: "d", As: "d.id", ExtID: true},
		}},
		&op.Defactor{Cols: []string{"a.id", "b.id", "c.id", "d.id"}},
	}
	head := plan.Plan{
		&op.NodeScan{Var: "a", Label: s.Person},
		&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.Expand{From: "b", To: "d", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
	}
	wcoj = append(append(plan.Plan{}, head...), &op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
		{Var: "a", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		{Var: "d", Et: s.Knows, Dir: catalog.In, DstLabel: s.Person},
	}})
	wcoj = append(wcoj, tail...)
	flat = append(append(plan.Plan{}, head...),
		&op.Expand{From: "a", To: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ExpandInto{From: "c", To: "d", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, SrcLabel: s.Person})
	flat = append(flat, tail...)
	return wcoj, flat
}

// bruteDiamonds enumerates (a,b,c,d) with a→b→d, a→c→d, by one-source walks.
func bruteDiamonds(f *testgraph.Fixture) []string {
	g := f.Graph
	var rows []string
	for _, a := range f.Persons {
		for _, b := range knowsAdj(f, a) {
			for _, d := range knowsAdj(f, b) {
				for _, c := range knowsAdj(f, a) {
					if knowsHas(f, c, d) {
						rows = append(rows, fmt.Sprintf("%d|%d|%d|%d|",
							g.ExtID(a), g.ExtID(b), g.ExtID(c), g.ExtID(d)))
					}
				}
			}
		}
	}
	return sortedCopy(rows)
}

// TestExpandIntersectTriangle checks the 2-way intersection against brute
// force and the oracle, on a graph sealed explicitly and on one its first read
// seals, in every mode.
func TestExpandIntersectTriangle(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := cyclicFixture(t)
		if sealed {
			f.Graph.SealCSR()
		}
		want := bruteTriangles(f)
		if len(want) == 0 {
			t.Fatal("fixture has no triangles; test is vacuous")
		}
		checkRows(t, f.Graph, func() plan.Plan { return wcojTrianglePlan(f.Schema) },
			want, fmt.Sprintf("sealed=%v", sealed))
	}
}

// TestExpandIntersectDiamond checks the diamond against brute force and
// against the explicit flat-hash-join reference plan.
func TestExpandIntersectDiamond(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := cyclicFixture(t)
		if sealed {
			f.Graph.SealCSR()
		}
		want := bruteDiamonds(f)
		if len(want) == 0 {
			t.Fatal("fixture has no diamonds; test is vacuous")
		}
		wcoj, flat := diamondPlans(f.Schema)
		checkRows(t, f.Graph, func() plan.Plan { return wcoj },
			want, fmt.Sprintf("wcoj sealed=%v", sealed))
		// The hand-built classical chain (sibling Expand + de-factoring
		// ExpandInto) must produce the same multiset.
		for _, mode := range modes {
			fb := run(t, f, mode, flat)
			if got := rowsAsStrings(fb); !reflect.DeepEqual(got, want) {
				t.Fatalf("flat reference %s sealed=%v:\n got %v\nwant %v", mode, sealed, got, want)
			}
		}
	}
}

// TestExpandIntersectThreeWay lists 4-cliques a→b, {c,d} via 2-way then
// 3-way intersections — the k>2 leapfrog path.
func TestExpandIntersectThreeWay(t *testing.T) {
	f := cyclicFixture(t)
	f.Graph.SealCSR()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "a", Label: s.Person},
			&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
				{Var: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				{Var: "a", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			}},
			&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
				{Var: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				{Var: "a", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				{Var: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			}},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "a", As: "a.id", ExtID: true},
				{Var: "b", As: "b.id", ExtID: true},
				{Var: "c", As: "c.id", ExtID: true},
				{Var: "d", As: "d.id", ExtID: true},
			}},
			&op.Defactor{Cols: []string{"a.id", "b.id", "c.id", "d.id"}},
		}
	}
	g := f.Graph
	var want []string
	for _, a := range f.Persons {
		for _, b := range knowsAdj(f, a) {
			for _, c := range knowsAdj(f, b) {
				if !knowsHas(f, a, c) {
					continue
				}
				for _, d := range knowsAdj(f, c) {
					if knowsHas(f, a, d) && knowsHas(f, b, d) {
						want = append(want, fmt.Sprintf("%d|%d|%d|%d|",
							g.ExtID(a), g.ExtID(b), g.ExtID(c), g.ExtID(d)))
					}
				}
			}
		}
	}
	want = sortedCopy(want)
	if len(want) == 0 {
		t.Fatal("fixture has no 4-cliques; test is vacuous")
	}
	checkRows(t, f.Graph, build, want, "clique")
}

// TestExpandIntersectSiblingFallback binds both sides on sibling branches,
// where no single node owns all side vertices and the operator must
// de-factor and intersect flat.
func TestExpandIntersectSiblingFallback(t *testing.T) {
	f := cyclicFixture(t)
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "a", Label: s.Person},
			&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Expand{From: "a", To: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
				{Var: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				{Var: "c", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			}},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "a", As: "a.id", ExtID: true},
				{Var: "b", As: "b.id", ExtID: true},
				{Var: "c", As: "c.id", ExtID: true},
				{Var: "d", As: "d.id", ExtID: true},
			}},
			&op.Defactor{Cols: []string{"a.id", "b.id", "c.id", "d.id"}},
		}
	}
	g := f.Graph
	var want []string
	for _, a := range f.Persons {
		for _, b := range knowsAdj(f, a) {
			for _, c := range knowsAdj(f, a) {
				for _, d := range knowsAdj(f, b) {
					if knowsHas(f, c, d) {
						want = append(want, fmt.Sprintf("%d|%d|%d|%d|",
							g.ExtID(a), g.ExtID(b), g.ExtID(c), g.ExtID(d)))
					}
				}
			}
		}
	}
	want = sortedCopy(want)
	if len(want) == 0 {
		t.Fatal("no sibling matches; test is vacuous")
	}
	checkRows(t, f.Graph, build, want, "sibling")
}

// TestExpandIntersectAnyLabel intersects LIKES adjacencies fanning out to
// AnyLabel (Post ∪ Comment) — a multi-family lookup whose batches are never
// Sorted, forcing the hash fallback even on a sealed graph.
func TestExpandIntersectAnyLabel(t *testing.T) {
	f := cyclicFixture(t)
	s := f.Schema
	// Shared likes: persons 1 and 2 both like post 1 and comment 0.
	for _, e := range []struct {
		p int
		m vector.VID
	}{{1, f.Posts[1]}, {2, f.Posts[1]}, {1, f.Comments[0]}, {2, f.Comments[0]}, {4, f.Posts[2]}} {
		if err := f.Graph.AddEdge(s.Likes, f.Persons[e.p], e.m, vector.Date(21200)); err != nil {
			t.Fatal(err)
		}
	}
	f.Graph.SealCSR()
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "a", Label: s.Person},
			&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ExpandIntersect{To: "m", Sides: []op.IntersectSide{
				{Var: "a", Et: s.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel},
				{Var: "b", Et: s.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel},
			}},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "a", As: "a.id", ExtID: true},
				{Var: "b", As: "b.id", ExtID: true},
				{Var: "m", As: "m.id", ExtID: true},
			}},
			&op.Defactor{Cols: []string{"a.id", "b.id", "m.id"}},
		}
	}
	g := f.Graph
	likesAdj := func(v vector.VID) []vector.VID {
		return testgraph.NeighborVIDs(g, v, s.Likes, catalog.Out, storage.AnyLabel)
	}
	var want []string
	for _, a := range f.Persons {
		for _, b := range knowsAdj(f, a) {
			for _, m := range likesAdj(a) {
				for _, bm := range likesAdj(b) {
					if bm == m {
						want = append(want, fmt.Sprintf("%d|%d|%d|", g.ExtID(a), g.ExtID(b), g.ExtID(m)))
						break
					}
				}
			}
		}
	}
	want = sortedCopy(want)
	if len(want) == 0 {
		t.Fatal("no shared likes; test is vacuous")
	}
	checkRows(t, f.Graph, build, want, "anylabel")
}

// TestExpandIntersectOverlay runs the triangle intersection through a
// transaction snapshot whose committed edges add new closing edges — entries
// of the sealed images' deltas, merged into the sorted runs at the snapshot's
// version.
func TestExpandIntersectOverlay(t *testing.T) {
	f := cyclicFixture(t)
	s := f.Schema
	f.Graph.SealCSR()
	base := bruteTriangles(f) // the graph reads every committed edge: count before the commit
	m := txn.NewManager(f.Graph)
	tx := m.Begin([]vector.VID{f.Persons[6], f.Persons[7], f.Persons[8]})
	// A brand-new triangle 6→7→8→6, symmetric, entirely in the overlay.
	for _, e := range [][2]int{{6, 7}, {7, 8}, {8, 6}} {
		a, b := f.Persons[e[0]], f.Persons[e[1]]
		if err := tx.AddEdge(s.Knows, a, b, vector.Date(21300)); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddEdge(s.Knows, b, a, vector.Date(21300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	// Brute force through the snapshot view.
	adj := func(v vector.VID) []vector.VID {
		return testgraph.NeighborVIDs(snap, v, s.Knows, catalog.Out, s.Person)
	}
	has := func(v, w vector.VID) bool {
		for _, x := range adj(v) {
			if x == w {
				return true
			}
		}
		return false
	}
	var want []string
	for _, a := range f.Persons {
		for _, b := range adj(a) {
			for _, c := range adj(b) {
				if has(c, a) {
					want = append(want, fmt.Sprintf("%d|%d|%d|",
						f.Graph.ExtID(a), f.Graph.ExtID(b), f.Graph.ExtID(c)))
				}
			}
		}
	}
	want = sortedCopy(want)
	if len(want) <= len(base) {
		t.Fatal("overlay added no triangles; test is vacuous")
	}
	checkRows(t, snap, func() plan.Plan { return wcojTrianglePlan(s) }, want, "overlay")
}

// TestExpandIntersectZeroRows feeds the operator a 0-row block (a seek of a
// nonexistent id): every path must return zero rows without error.
func TestExpandIntersectZeroRows(t *testing.T) {
	f := cyclicFixture(t)
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "a", Label: s.Person, ExtID: 999999},
			&op.Expand{From: "a", To: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
				{Var: "b", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				{Var: "a", Et: s.Knows, Dir: catalog.In, DstLabel: s.Person},
			}},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "c", As: "c.id", ExtID: true}}},
			&op.Defactor{Cols: []string{"c.id"}},
		}
	}
	checkRows(t, f.Graph, build, []string{}, "zero-rows")
}

// TestExpandIntersectEmptyIntersection uses a pattern with candidates but no
// survivors: the fresh fixture has no symmetric closures beyond what
// triangles need, so intersecting against an untouched person's adjacency is
// empty.
func TestExpandIntersectEmptyIntersection(t *testing.T) {
	f := testgraph.New() // base fixture: no triangles at all
	s := f.Schema
	fb := run(t, f, exec.ModeFactorized, wcojTrianglePlan(s))
	if fb.NumRows() != 0 {
		t.Fatalf("base fixture has no triangles, got %d rows", fb.NumRows())
	}
}

// TestExpandIntersectTooFewSides pins the arity validation.
func TestExpandIntersectTooFewSides(t *testing.T) {
	f := cyclicFixture(t)
	s := f.Schema
	p := plan.Plan{
		&op.NodeScan{Var: "a", Label: s.Person},
		&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{
			{Var: "a", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		}},
	}
	if _, err := exec.New(exec.ModeFactorized).Run(f.Graph, p); err == nil {
		t.Fatal("single-side ExpandIntersect did not error")
	}
}
