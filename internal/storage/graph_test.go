package storage

import (
	"sort"
	"testing"
	"testing/quick"

	"ges/internal/catalog"
	"ges/internal/vector"
)

func twoLabelGraph(t *testing.T) (*Graph, catalog.LabelID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	cat := catalog.New()
	person, err := cat.AddLabel("Person",
		catalog.PropDef{Name: "name", Kind: vector.KindString},
		catalog.PropDef{Name: "age", Kind: vector.KindInt64})
	if err != nil {
		t.Fatal(err)
	}
	city, err := cat.AddLabel("City",
		catalog.PropDef{Name: "name", Kind: vector.KindString})
	if err != nil {
		t.Fatal(err)
	}
	livesIn, err := cat.AddEdgeType("LIVES_IN",
		catalog.PropDef{Name: "since", Kind: vector.KindDate})
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph(cat), person, city, livesIn
}

func TestVertexRoundTrip(t *testing.T) {
	g, person, _, _ := twoLabelGraph(t)
	v, err := g.AddVertex(person, 42, vector.String_("alice"), vector.Int64(30))
	if err != nil {
		t.Fatal(err)
	}
	if g.LabelOf(v) != person {
		t.Fatalf("LabelOf = %d", g.LabelOf(v))
	}
	if g.ExtID(v) != 42 {
		t.Fatalf("ExtID = %d", g.ExtID(v))
	}
	if got, ok := g.VertexByExt(person, 42); !ok || got != v {
		t.Fatalf("VertexByExt = %d, %v", got, ok)
	}
	if got := g.Prop(v, 0); got.S != "alice" {
		t.Fatalf("Prop(name) = %v", got)
	}
	if got := g.Prop(v, 1); got.I != 30 {
		t.Fatalf("Prop(age) = %v", got)
	}
	if _, ok := g.VertexByExt(person, 43); ok {
		t.Fatal("phantom vertex")
	}
}

func TestDuplicateExternalID(t *testing.T) {
	g, person, _, _ := twoLabelGraph(t)
	if _, err := g.AddVertex(person, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVertex(person, 1); err == nil {
		t.Fatal("duplicate external id must fail")
	}
}

func TestMissingPropsStoreTypedZeros(t *testing.T) {
	g, person, _, _ := twoLabelGraph(t)
	v, err := g.AddVertex(person, 1) // no props supplied
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Prop(v, 0); got.Kind != vector.KindString || got.S != "" {
		t.Fatalf("zero string prop = %#v", got)
	}
	if got := g.Prop(v, 1); got.Kind != vector.KindInt64 || got.I != 0 {
		t.Fatalf("zero int prop = %#v", got)
	}
}

func TestEdgesAndNeighbors(t *testing.T) {
	g, person, city, livesIn := twoLabelGraph(t)
	p1, _ := g.AddVertex(person, 1, vector.String_("a"), vector.Int64(1))
	p2, _ := g.AddVertex(person, 2, vector.String_("b"), vector.Int64(2))
	c1, _ := g.AddVertex(city, 100, vector.String_("rome"))
	c2, _ := g.AddVertex(city, 101, vector.String_("oslo"))

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(livesIn, p1, c1, vector.Date(10)))
	must(g.AddEdge(livesIn, p2, c1, vector.Date(20)))
	must(g.AddEdge(livesIn, p2, c2, vector.Date(30)))

	collect := func(src vector.VID, dir catalog.Direction) []vector.VID {
		var out []vector.VID
		for _, seg := range g.Neighbors(nil, src, livesIn, dir, AnyLabel, false) {
			out = append(out, seg.VIDs...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if got := collect(p2, catalog.Out); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("p2 out = %v", got)
	}
	if got := collect(c1, catalog.In); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("c1 in = %v", got)
	}
	if g.Degree(p2, livesIn, catalog.Out, AnyLabel) != 2 {
		t.Fatal("degree p2")
	}
	if g.Degree(c1, livesIn, catalog.In, city) != 0 {
		t.Fatal("degree with wrong dst label should be 0")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}

	// Edge properties aligned with neighbors.
	segs := g.Neighbors(nil, p2, livesIn, catalog.Out, city, true)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	for i, n := range segs[0].VIDs {
		since := segs[0].PropI64[0][i]
		want := int64(20)
		if n == c2 {
			want = 30
		}
		if since != want {
			t.Fatalf("edge prop for neighbor %d = %d, want %d", n, since, want)
		}
	}
}

func TestBothDirection(t *testing.T) {
	g, person, _, _ := twoLabelGraph(t)
	knows, _ := g.Catalog().AddEdgeType("KNOWS")
	p1, _ := g.AddVertex(person, 1)
	p2, _ := g.AddVertex(person, 2)
	if err := g.AddEdge(knows, p1, p2); err != nil {
		t.Fatal(err)
	}
	if got := g.Degree(p1, knows, catalog.Both, AnyLabel); got != 1 {
		t.Fatalf("both-degree p1 = %d (out edge only)", got)
	}
	if got := g.Degree(p2, knows, catalog.Both, AnyLabel); got != 1 {
		t.Fatalf("both-degree p2 = %d (in edge only)", got)
	}
}

func TestSlotRegrowthKeepsSegmentsValid(t *testing.T) {
	g, person, city, livesIn := twoLabelGraph(t)
	p, _ := g.AddVertex(person, 1)
	// Force many relocations of p's slot.
	const n = 100
	cities := make([]vector.VID, n)
	for i := 0; i < n; i++ {
		cities[i], _ = g.AddVertex(city, int64(1000+i))
	}
	// Hold a view from before the growth: it must keep old data.
	if err := g.AddEdge(livesIn, p, cities[0], vector.Date(0)); err != nil {
		t.Fatal(err)
	}
	early := g.Neighbors(nil, p, livesIn, catalog.Out, city, false)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(livesIn, p, cities[i], vector.Date(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(early) != 1 || len(early[0].VIDs) != 1 || early[0].VIDs[0] != cities[0] {
		t.Fatal("pre-growth segment view corrupted by relocation")
	}
	segs := g.Neighbors(nil, p, livesIn, catalog.Out, city, true)
	total := 0
	for _, s := range segs {
		total += len(s.VIDs)
		for i, v := range s.VIDs {
			// since == index of the city; verifies props moved with VIDs.
			if s.PropI64[0][i] != int64(v-cities[0]) {
				t.Fatalf("edge prop misaligned after regrowth: vid %d since %d", v, s.PropI64[0][i])
			}
		}
	}
	if total != n {
		t.Fatalf("neighbors after regrowth = %d, want %d", total, n)
	}
}

func TestDeleteEdge(t *testing.T) {
	g, person, city, livesIn := twoLabelGraph(t)
	p, _ := g.AddVertex(person, 1)
	c1, _ := g.AddVertex(city, 100)
	c2, _ := g.AddVertex(city, 101)
	_ = g.AddEdge(livesIn, p, c1, vector.Date(1))
	_ = g.AddEdge(livesIn, p, c2, vector.Date(2))
	if !g.DeleteEdge(livesIn, p, c1) {
		t.Fatal("delete existing edge failed")
	}
	if g.DeleteEdge(livesIn, p, c1) {
		t.Fatal("double delete should fail")
	}
	segs := g.Neighbors(nil, p, livesIn, catalog.Out, city, true)
	if len(segs) != 1 || len(segs[0].VIDs) != 1 || segs[0].VIDs[0] != c2 {
		t.Fatalf("neighbors after delete = %v", segs)
	}
	if segs[0].PropI64[0][0] != 2 {
		t.Fatal("edge prop not moved with compaction")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

// Property: adjacency round-trip — whatever set of edges we insert per
// source, Neighbors returns exactly that multiset, regardless of insertion
// interleaving (which exercises slot relocation).
func TestAdjacencyRoundTripProperty(t *testing.T) {
	f := func(edges []uint8) bool {
		g, person, city, livesIn := twoLabelGraph(t)
		var persons [4]vector.VID
		var cities [8]vector.VID
		for i := range persons {
			persons[i], _ = g.AddVertex(person, int64(i))
		}
		for i := range cities {
			cities[i], _ = g.AddVertex(city, int64(100+i))
		}
		want := make(map[vector.VID][]vector.VID)
		for _, e := range edges {
			src := persons[int(e)%4]
			dst := cities[int(e/4)%8]
			if err := g.AddEdge(livesIn, src, dst, vector.Date(int64(e))); err != nil {
				return false
			}
			want[src] = append(want[src], dst)
		}
		for _, src := range persons {
			var got []vector.VID
			for _, seg := range g.Neighbors(nil, src, livesIn, catalog.Out, city, false) {
				got = append(got, seg.VIDs...)
			}
			if len(got) != len(want[src]) {
				return false
			}
			sortVIDs(got)
			w := append([]vector.VID(nil), want[src]...)
			sortVIDs(w)
			for i := range w {
				if got[i] != w[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sortVIDs(v []vector.VID) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func TestScanLabelAndCounts(t *testing.T) {
	g, person, city, _ := twoLabelGraph(t)
	for i := 0; i < 5; i++ {
		if _, err := g.AddVertex(person, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddVertex(city, 100); err != nil {
		t.Fatal(err)
	}
	if got := len(g.ScanLabel(person)); got != 5 {
		t.Fatalf("ScanLabel(person) = %d", got)
	}
	if g.CountLabel(city) != 1 || g.CountLabel(person) != 5 {
		t.Fatal("CountLabel wrong")
	}
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.MemBytes() <= 0 {
		t.Fatal("MemBytes should be positive")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	p := NewPool()
	buf := p.GetVIDs(100)
	if cap(buf) < 100 {
		t.Fatalf("cap = %d", cap(buf))
	}
	buf = append(buf, 1, 2, 3)
	p.PutVIDs(buf)
	buf2 := p.GetVIDs(50)
	if len(buf2) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	gets, puts := p.Stats()
	if gets != 2 || puts != 1 {
		t.Fatalf("stats = %d/%d", gets, puts)
	}
	// Oversized requests bypass the classes but still work.
	big := p.GetVIDs(1 << 22)
	if cap(big) < 1<<22 {
		t.Fatal("big alloc failed")
	}
	p.PutVIDs(big)
}
