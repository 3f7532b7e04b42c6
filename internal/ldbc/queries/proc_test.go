package queries

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// The references below are the per-vertex procedures IC13 and IC14 ran
// before their searches moved onto internal/op's batched BFS: an unbounded
// BFS into a distance map, a recursive walk reading each vertex's neighbours
// afresh, and every path edge weighed from scratch. They share only the
// storage read (one source at a time, testgraph.NeighborVIDs) with the
// procedures, so a test comparing the two checks something.

// bfsDistances runs a BFS from src over KNOWS and returns the distance map
// up to maxDepth (or unbounded when maxDepth < 0).
func bfsDistances(view storage.View, h *ldbc.Handles, src vector.VID, maxDepth int) map[vector.VID]int {
	dist := map[vector.VID]int{src: 0}
	frontier := []vector.VID{src}
	for d := 1; len(frontier) > 0 && (maxDepth < 0 || d <= maxDepth); d++ {
		var next []vector.VID
		for _, u := range frontier {
			for _, v := range testgraph.NeighborVIDs(view, u, h.Knows, catalog.Out, h.Person) {
				if _, ok := dist[v]; ok {
					continue
				}
				dist[v] = d
				next = append(next, v)
			}
		}
		frontier = next
	}
	return dist
}

// interactionWeight scores one adjacent person pair: comments by either one
// replying to the other's posts score 1.0, to the other's comments 0.5.
func interactionWeight(view storage.View, h *ldbc.Handles, a, b vector.VID) float64 {
	w := 0.0
	scoreDir := func(x, y vector.VID) {
		// Comments created by x ...
		for _, c := range testgraph.NeighborVIDs(view, x, h.HasCreator, catalog.In, h.Comment) {
			// ... replying to a message created by y.
			for _, parent := range testgraph.NeighborVIDs(view, c, h.ReplyOf, catalog.Out, storage.AnyLabel) {
				for _, creator := range testgraph.NeighborVIDs(view, parent, h.HasCreator, catalog.Out, h.Person) {
					if creator != y {
						continue
					}
					if view.LabelOf(parent) == h.Post {
						w += 1.0
					} else {
						w += 0.5
					}
				}
			}
		}
	}
	scoreDir(a, b)
	scoreDir(b, a)
	return w
}

// ic13Reference is IC13 by a one-sided unbounded BFS from person1.
func ic13Reference(view storage.View, h *ldbc.Handles, p Params) []vector.Value {
	src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
	dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
	n := -1
	if ok1 && ok2 {
		if d, ok := bfsDistances(view, h, src, -1)[dst]; ok {
			n = d
		}
	}
	return []vector.Value{vector.Int64(int64(n))}
}

// ic14Unmemoized is IC14 with every edge of every path weighed afresh. The
// procedure must reproduce it row for row, in order, with bit-identical
// weights.
func ic14Unmemoized(view storage.View, h *ldbc.Handles, p Params) []vector.Value {
	src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
	dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
	if !ok1 || !ok2 {
		return nil
	}
	distTo := bfsDistances(view, h, dst, -1)
	total, ok := distTo[src]
	if !ok {
		return nil
	}
	var paths [][]vector.VID
	var walk func(u vector.VID, path []vector.VID)
	walk = func(u vector.VID, path []vector.VID) {
		if len(paths) >= 1000 {
			return
		}
		if u == dst {
			paths = append(paths, append([]vector.VID(nil), path...))
			return
		}
		var nexts []vector.VID
		for _, v := range testgraph.NeighborVIDs(view, u, h.Knows, catalog.Out, h.Person) {
			if d, ok := distTo[v]; ok && d == distTo[u]-1 {
				nexts = append(nexts, v)
			}
		}
		for _, v := range nexts {
			walk(v, append(path, v))
		}
	}
	walk(src, []vector.VID{src})
	weights := make([]float64, len(paths))
	for i, path := range paths {
		for k := 0; k+1 < len(path); k++ {
			weights[i] += interactionWeight(view, h, path[k], path[k+1])
		}
	}
	order := make([]int, len(paths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	var rows []vector.Value
	for _, i := range order {
		rows = append(rows, vector.Int64(int64(total)), vector.Float64(weights[i]))
	}
	return rows
}

// pathView is one representation of the graph the path procedures read.
type pathView struct {
	name string
	view storage.View
}

// afterIUs pins the graph's current version, commits n IU updates (every
// kind in turn, IU8's new friendships among them) and returns the graph
// pinned before them, a transaction snapshot after them, and the person
// pairs IU8 befriended.
func afterIUs(t *testing.T, ds *ldbc.Dataset, n int) ([]pathView, []Params) {
	t.Helper()
	r := NewRunner(ds, exec.ModeFused, nil)
	pin := r.Mgr.AcquireSnapshot()
	t.Cleanup(func() { r.Mgr.Release(pin) })
	pg := ds.NewParamGen(31)
	ius := OfKind(IU)
	var knows []Params
	for i := 0; i < n; i++ {
		q := ius[i%len(ius)]
		p := q.GenParams(ds, pg)
		if _, _, err := r.Execute(q, p); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if q == IU8 {
			knows = append(knows, Params{"person1Id": p["person1Id"], "person2Id": p["person2Id"]})
		}
	}
	after := r.Mgr.AcquireSnapshot()
	t.Cleanup(func() { r.Mgr.Release(after) })
	return []pathView{
		{fmt.Sprintf("txn-after-%d-IUs", n), after},
		{"pinned-before-IUs", ds.Graph.At(pin.Version())},
	}, knows
}

// checkProc runs the procedure on every draw and compares its rows with the
// reference's, returning the number of rows compared.
func checkProc(t *testing.T, q *Query, ref func(storage.View, *ldbc.Handles, Params) []vector.Value, h *ldbc.Handles, v pathView, draws []Params) int {
	t.Helper()
	rows := 0
	for i, p := range draws {
		fb, err := q.Proc(v.view, h, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flatValues(fb), ref(v.view, h, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s, draw %d (%v): rows %v, want %v", q.Name, v.name, i, p, got, want)
		}
		rows += fb.NumRows()
	}
	return rows
}

// drawParams draws n parameter sets of q.
func drawParams(ds *ldbc.Dataset, q *Query, seed int64, n int) []Params {
	pg := ds.NewParamGen(seed)
	out := make([]Params, n)
	for i := range out {
		out[i] = q.GenParams(ds, pg)
	}
	return out
}

// TestIC13PathLengths compares every IC13 draw with a one-sided BFS, on the
// sealed graph, on a snapshot after IU commits and on the graph pinned
// before them — IU8's new friendships included, which are one hop apart
// after the commits and need not be before.
func TestIC13PathLengths(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	draws := drawParams(ds, IC13, 77, 200)
	checkProc(t, IC13, ic13Reference, ds.H, pathView{"sealed", ds.Graph}, draws)
	views, knows := afterIUs(t, ds, 3000)
	if len(knows) == 0 {
		t.Fatal("no IU8 among the commits")
	}
	for _, v := range views {
		checkProc(t, IC13, ic13Reference, ds.H, v, append(draws, knows...))
	}
	for _, p := range knows {
		fb, err := IC13.Proc(views[0].view, ds.H, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := fb.Rows[0][0].I; n != 1 {
			t.Fatalf("IU8 pair %v: length %d after the commit, want 1", p, n)
		}
	}
}

// TestIC14MatchesUnmemoized: the batched search, the path DAG and the
// batched weight tally change no row and no order — the floats are
// bit-identical, since each path still adds its weights in path order. It
// runs on the sealed graph, a snapshot after IU commits (new friendships,
// posts and replies) and the graph pinned before them.
func TestIC14MatchesUnmemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("generates simSF 1")
	}
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	draws := drawParams(ds, IC14, 14, 200)
	if rows := checkProc(t, IC14, ic14Unmemoized, ds.H, pathView{"sealed", ds.Graph}, draws); rows < 200 {
		t.Fatalf("200 draws found %d paths; the comparison is near vacuous", rows)
	}
	views, _ := afterIUs(t, ds, 3000)
	for _, v := range views {
		if rows := checkProc(t, IC14, ic14Unmemoized, ds.H, v, draws[:100]); rows < 100 {
			t.Fatalf("%s: 100 draws found %d paths; the comparison is near vacuous", v.name, rows)
		}
	}
}

// TestPathProceduresTable runs IC13 and IC14 on a hand-built graph whose
// answers are worked out by hand, and checks IC14 against the reference too.
//
//	diamond: 1-2, 1-3, 2-4, 3-4 and 1-5. Person 1 comments on 2's post
//	  (1.0 on 1-2), 3 comments on 4's comment (0.5 on 3-4), and 2 comments on
//	  5's post, which lies off every shortest 1→4 path.
//	layers: 10 - six persons - six - six - six - 11, each layer knowing all
//	  of the next: 6^4 = 1296 shortest paths. The fifth person of the first
//	  layer (ext 24) comments on 10's post, so paths 865–1080 of the walk
//	  weigh 1.0 and the cap keeps 136 of them.
//	alone: 99 knows nobody.
func TestPathProceduresTable(t *testing.T) {
	h := ldbc.NewHandles()
	g := storage.NewGraph(h.Cat)
	person := map[int64]vector.VID{}
	add := func(ext int64) {
		v, err := g.AddVertex(h.Person, ext)
		if err != nil {
			t.Fatal(err)
		}
		person[ext] = v
	}
	knows := func(a, b int64) {
		for _, e := range [][2]int64{{a, b}, {b, a}} {
			if err := g.AddEdge(h.Knows, person[e[0]], person[e[1]], vector.Date(ldbc.DayStart)); err != nil {
				t.Fatal(err)
			}
		}
	}
	msgs := int64(0)
	message := func(label catalog.LabelID, creator int64) vector.VID {
		msgs++
		m, err := g.AddVertex(label, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(h.HasCreator, m, person[creator]); err != nil {
			t.Fatal(err)
		}
		return m
	}
	reply := func(by int64, to vector.VID) {
		if err := g.AddEdge(h.ReplyOf, message(h.Comment, by), to); err != nil {
			t.Fatal(err)
		}
	}
	for ext := int64(1); ext <= 5; ext++ {
		add(ext)
	}
	for _, e := range [][2]int64{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {1, 5}} {
		knows(e[0], e[1])
	}
	reply(1, message(h.Post, 2))
	reply(3, message(h.Comment, 4))
	reply(2, message(h.Post, 5))
	add(10)
	add(11)
	prev := []int64{10}
	for layer := int64(0); layer < 4; layer++ {
		var cur []int64
		for i := int64(0); i < 6; i++ {
			ext := 20 + 6*layer + i
			add(ext)
			for _, p := range prev {
				knows(p, ext)
			}
			cur = append(cur, ext)
		}
		prev = cur
	}
	for _, p := range prev {
		knows(p, 11)
	}
	reply(24, message(h.Post, 10))
	add(99)
	g.SealCSR()

	paths := func(n int, length int64, w float64) []vector.Value {
		var out []vector.Value
		for i := 0; i < n; i++ {
			out = append(out, vector.Int64(length), vector.Float64(w))
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		p1, p2 int64
		ic13   int64
		ic14   []vector.Value
	}{
		{"disconnected", 1, 99, -1, nil},
		{"same-person", 3, 3, 0, paths(1, 0, 0)},
		{"unknown-id", 1, 12345, -1, nil},
		{"diamond-post-and-comment-replies", 1, 4, 2, append(paths(1, 2, 1), paths(1, 2, 0.5)...)},
		{"one-hop-post-reply", 2, 1, 1, paths(1, 1, 1)},
		{"reply-off-the-path", 2, 5, 2, paths(1, 2, 1)},
		{"cap-at-1000-paths", 10, 11, 5, append(paths(136, 5, 1), paths(864, 5, 0)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{"person1Id": vector.Int64(tc.p1), "person2Id": vector.Int64(tc.p2)}
			fb, err := IC13.Proc(g, h, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := flatValues(fb); !reflect.DeepEqual(got, []vector.Value{vector.Int64(tc.ic13)}) {
				t.Fatalf("IC13 = %v, want %d", got, tc.ic13)
			}
			if fb, err = IC14.Proc(g, h, p); err != nil {
				t.Fatal(err)
			}
			got := flatValues(fb)
			if !reflect.DeepEqual(got, tc.ic14) {
				t.Fatalf("IC14 = %v, want %v", got, tc.ic14)
			}
			if want := ic14Unmemoized(g, h, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("IC14 = %v, reference %v", got, want)
			}
		})
	}
}

// flatValues lists a flat block's values row by row.
func flatValues(fb *core.FlatBlock) []vector.Value {
	var out []vector.Value
	for _, row := range fb.Rows {
		out = append(out, row...)
	}
	return out
}
