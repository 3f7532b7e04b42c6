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
		out := nbrs(g, src, livesIn, dir, AnyLabel)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if got := collect(p2, catalog.Out); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("p2 out = %v", got)
	}
	if got := collect(c1, catalog.In); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("c1 in = %v", got)
	}
	if len(nbrs(g, p2, livesIn, catalog.Out, AnyLabel)) != 2 {
		t.Fatal("degree p2")
	}
	if len(nbrs(g, c1, livesIn, catalog.In, city)) != 0 {
		t.Fatal("degree with wrong dst label should be 0")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}

	// Edge properties aligned with neighbors.
	for _, e := range datedNbrs(g, p2, livesIn, catalog.Out, city) {
		want := int64(20)
		if e.dst == c2 {
			want = 30
		}
		if e.since != want {
			t.Fatalf("edge prop for neighbor %d = %d, want %d", e.dst, e.since, want)
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
	if got := len(nbrs(g, p1, knows, catalog.Both, AnyLabel)); got != 1 {
		t.Fatalf("both-degree p1 = %d (out edge only)", got)
	}
	if got := len(nbrs(g, p2, knows, catalog.Both, AnyLabel)); got != 1 {
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
	var early Batch
	g.NeighborsBatch([]vector.VID{p}, livesIn, catalog.Out, city, false, &early) // seals
	for i := 1; i < n; i++ {
		if err := g.CommitEdge(uint64(i), livesIn, p, cities[i], vector.Date(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if run := early.Run(0); len(run) != 1 || run[0] != cities[0] {
		t.Fatal("pre-growth piece view corrupted by relocation")
	}
	es := datedNbrs(g, p, livesIn, catalog.Out, city)
	for _, e := range es {
		// since == index of the city; verifies props moved with VIDs.
		if e.since != int64(e.dst-cities[0]) {
			t.Fatalf("edge prop misaligned after regrowth: vid %d since %d", e.dst, e.since)
		}
	}
	if total := len(es); total != n {
		t.Fatalf("neighbors after regrowth = %d, want %d", total, n)
	}
}

// Property: adjacency round-trip — whatever set of edges we insert per
// source, a read returns exactly that multiset, regardless of insertion
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
			got := nbrs(g, src, livesIn, catalog.Out, city)
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
	if st := p.DetailedStats(); st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("stats = %d/%d", st.Gets, st.Puts)
	}
	// Oversized requests bypass the classes but still work.
	big := p.GetVIDs(1 << 22)
	if cap(big) < 1<<22 {
		t.Fatal("big alloc failed")
	}
	p.PutVIDs(big)
}

// TestSealedGraphTakesOnlyCommits: the seal is the boundary after which the
// only write is a commit stamped with a version of at least 1. A bulk-path
// write, a commit at version 0 and an edge of an unknown type each return an
// error and leave the edge count and every delta as they were.
func TestSealedGraphTakesOnlyCommits(t *testing.T) {
	g, ps, cs, person, _, livesIn := csrGraph(t)
	g.SealCSR()
	if err := g.CommitEdge(1, livesIn, ps[1], cs[0], vector.Date(1)); err != nil {
		t.Fatal(err)
	}
	edges, overlay := g.NumEdges(), g.Overlay()
	next := vector.VID(g.NumVertices())
	for _, c := range []struct {
		name  string
		write func() error
	}{
		{"AddEdge", func() error { return g.AddEdge(livesIn, ps[0], cs[1], vector.Date(2)) }},
		{"AddVertex", func() error { _, err := g.AddVertex(person, 999); return err }},
		{"CommitEdge at version 0", func() error { return g.CommitEdge(0, livesIn, ps[0], cs[1], vector.Date(2)) }},
		{"CommitVertex at version 0", func() error { return g.CommitVertex(0, next, person, 999) }},
		{"CommitEdge of an unknown type", func() error { return g.CommitEdge(2, 200, ps[0], cs[1]) }},
	} {
		if err := c.write(); err == nil {
			t.Errorf("%s on a sealed graph succeeded", c.name)
		}
		if g.NumEdges() != edges || g.Overlay() != overlay || g.NumVertices() != int(next) {
			t.Fatalf("%s changed the graph: %d edges, overlay %+v, %d vertices", c.name, g.NumEdges(), g.Overlay(), g.NumVertices())
		}
	}
}

// TestBulkEdgeOfUnknownTypeRefused: the bulk path checks the edge type before
// it creates a family for it.
func TestBulkEdgeOfUnknownTypeRefused(t *testing.T) {
	g, ps, cs, _, _, _ := csrGraph(t)
	families := len(g.fams.Load().adj)
	if err := g.AddEdge(200, ps[0], cs[0]); err == nil {
		t.Fatal("AddEdge of an unknown edge type succeeded")
	}
	if n := len(g.fams.Load().adj); n != families {
		t.Fatalf("a refused edge created %d families", n-families)
	}
}
