package storage

import (
	"math/rand"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/stats"
	"ges/internal/vector"
)

// statsGraph builds a small sealed two-label graph: 3 persons, 2 cities,
// LIVES_IN edges with fan-out 2/1/0.
func statsGraph(t *testing.T) (*Graph, catalog.LabelID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	g, person, city, livesIn := twoLabelGraph(t)
	p1, _ := g.AddVertex(person, 1, vector.String_("a"), vector.Int64(30))
	p2, _ := g.AddVertex(person, 2, vector.String_("b"), vector.Int64(40))
	if _, err := g.AddVertex(person, 3, vector.String_("c"), vector.Int64(50)); err != nil {
		t.Fatal(err)
	}
	c1, _ := g.AddVertex(city, 100, vector.String_("rome"))
	c2, _ := g.AddVertex(city, 101, vector.String_("oslo"))
	for _, e := range [][2]vector.VID{{p1, c1}, {p1, c2}, {p2, c1}} {
		if err := g.AddEdge(livesIn, e[0], e[1], vector.Date(10)); err != nil {
			t.Fatal(err)
		}
	}
	g.SealCSR()
	return g, person, city, livesIn
}

func TestSealPublishesStats(t *testing.T) {
	g, person, city, livesIn := statsGraph(t)
	s := g.Stats()
	if s == nil {
		t.Fatal("no snapshot after SealCSR")
	}
	if s.Epoch == 0 || g.StatsEpoch() != s.Epoch {
		t.Fatalf("epoch = %d, StatsEpoch = %d", s.Epoch, g.StatsEpoch())
	}
	if s.Label(person) != 3 || s.Label(city) != 2 || s.Vertices != 5 {
		t.Fatalf("label cards = %d/%d, vertices = %d", s.Label(person), s.Label(city), s.Vertices)
	}
	out := stats.FamKey{Src: person, Et: livesIn, Dst: city, Dir: catalog.Out}
	f, ok := s.Family(out)
	if !ok {
		t.Fatalf("missing family %+v; have %v", out, s.FamKeys())
	}
	if f.Edges != 3 || f.Sources != 2 || f.MaxDegree != 2 {
		t.Fatalf("out family = %+v, want edges 3, sources 2, max 2", f)
	}

	// Column summaries: age bounds from the column's values, name distincts
	// from the dictionary.
	age, ok := s.Column(stats.ColKey{Label: person, Prop: "age"})
	if !ok || age.MinI != 30 || age.MaxI != 50 || age.Rows != 3 {
		t.Fatalf("age column = %+v, %v", age, ok)
	}
	// The dictionary pre-seeds the empty string, so 3 names yield >= 3
	// distincts without encoding the exact dictionary layout here.
	name, ok := s.Column(stats.ColKey{Label: person, Prop: "name"})
	if !ok || name.Distinct < 3 || name.Distinct > 4 {
		t.Fatalf("name column = %+v, %v", name, ok)
	}

	// Ordered columns spanning several 2048-row blocks, each with its minimum
	// and its maximum in different blocks: the planner's bounds are the
	// brute-force min/max over every row.
	cat := catalog.New()
	reading, err := cat.AddLabel("Reading",
		catalog.PropDef{Name: "at", Kind: vector.KindDate},
		catalog.PropDef{Name: "x", Kind: vector.KindFloat64})
	if err != nil {
		t.Fatal(err)
	}
	rg := NewGraph(cat)
	const n = 3*2048 + 100
	rng := rand.New(rand.NewSource(7))
	ats, xs := make([]int64, n), make([]float64, n)
	for i := range ats {
		ats[i], xs[i] = 19000+rng.Int63n(2000), rng.Float64()*100
	}
	ats[100], ats[5000] = 18000, 22000 // blocks 0 and 2
	xs[4500], xs[300] = -1.5, 250.25   // blocks 2 and 0
	for i := range ats {
		if _, err := rg.AddVertex(reading, int64(i), vector.Date(ats[i]), vector.Float64(xs[i])); err != nil {
			t.Fatal(err)
		}
	}
	rg.SealCSR()
	at, ok := rg.Stats().Column(stats.ColKey{Label: reading, Prop: "at"})
	if lo, hi := slices.Min(ats), slices.Max(ats); !ok || at.Rows != n || at.MinI != lo || at.MaxI != hi {
		t.Fatalf("date column = %+v, %v; want rows %d, bounds [%d, %d]", at, ok, n, lo, hi)
	}
	x, ok := rg.Stats().Column(stats.ColKey{Label: reading, Prop: "x"})
	if lo, hi := slices.Min(xs), slices.Max(xs); !ok || x.Rows != n || x.MinF != lo || x.MaxF != hi {
		t.Fatalf("float column = %+v, %v; want rows %d, bounds [%g, %g]", x, ok, n, lo, hi)
	}
}

func TestOverlayMutationKeepsStatsPublished(t *testing.T) {
	g, person, city, livesIn := statsGraph(t)
	epoch := g.StatsEpoch()
	v := vector.VID(g.NumVertices())
	if err := g.CommitVertex(1, v, person, 4); err != nil {
		t.Fatal(err)
	}
	c, _ := g.VertexByExt(city, 100)
	if err := g.CommitEdge(1, livesIn, v, c, vector.Date(1)); err != nil {
		t.Fatal(err)
	}
	// Sealed-phase commits keep the snapshot published (it goes stale, it
	// does not go nil) so the planner never loses its cost model mid-stream.
	s := g.Stats()
	if s == nil || g.StatsEpoch() != epoch {
		t.Fatalf("snapshot dropped by overlay mutation: stats=%v epoch=%d want %d", s, g.StatsEpoch(), epoch)
	}
	if got := g.Overlay().StatsStale; got == 0 {
		t.Fatal("overlay mutation must bump the staleness counter")
	}
	// A full re-seal refreshes the snapshot under a strictly higher epoch.
	g.SealCSR()
	s = g.Stats()
	if s == nil || s.Epoch <= epoch {
		t.Fatalf("re-seal epoch = %v, want > %d", s, epoch)
	}
	out := stats.FamKey{Src: person, Et: livesIn, Dst: city, Dir: catalog.Out}
	if f, ok := s.Family(out); !ok || f.Edges != 4 {
		t.Fatalf("re-sealed out family = %+v, want the committed edge among 4", f)
	}
	if got := g.Overlay().StatsStale; got != 0 {
		t.Fatalf("re-seal must clear staleness, got %d", got)
	}
}

func TestBulkPhaseHasNoStats(t *testing.T) {
	// Before the first SealCSR the graph is in bulk-load phase: no snapshot
	// is published, so mutations have nothing to go stale against.
	g, person, city, livesIn := twoLabelGraph(t)
	p1, _ := g.AddVertex(person, 1, vector.String_("a"), vector.Int64(30))
	c1, _ := g.AddVertex(city, 100, vector.String_("rome"))
	if err := g.AddEdge(livesIn, p1, c1, vector.Date(10)); err != nil {
		t.Fatal(err)
	}
	if g.Stats() != nil || g.StatsEpoch() != 0 {
		t.Fatal("bulk-phase graph must have no snapshot")
	}
	if got := g.Overlay().StatsStale; got != 0 {
		t.Fatalf("bulk-phase mutations counted as staleness: %d", got)
	}
	// Once published the snapshot is never dropped: commits leave it in
	// place and bump the staleness gauge instead.
	g.SealCSR()
	epoch := g.StatsEpoch()
	for ver := uint64(1); ver <= 2; ver++ {
		if err := g.CommitEdge(ver, livesIn, p1, c1, vector.Date(int64(10+ver))); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats() == nil || g.StatsEpoch() != epoch {
		t.Fatal("sealed-phase commit dropped the snapshot")
	}
	if got := g.Overlay().StatsStale; got != 2 {
		t.Fatalf("staleness = %d after two sealed-phase commits, want 2", got)
	}
}

func TestResealRebasesStats(t *testing.T) {
	g, person, city, livesIn := statsGraph(t)
	epoch := g.StatsEpoch()
	p3, _ := g.VertexByExt(person, 3)
	c2, _ := g.VertexByExt(city, 101)
	// Force an inline reseal on the very first overlay write.
	g.SetResealPolicy(1e-9, 1)
	if err := g.CommitEdge(1, livesIn, p3, c2, vector.Date(20)); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s == nil {
		t.Fatal("snapshot missing after reseal")
	}
	if s.Epoch <= epoch {
		t.Fatalf("reseal must bump the epoch: got %d want > %d", s.Epoch, epoch)
	}
	out := stats.FamKey{Src: person, Et: livesIn, Dst: city, Dir: catalog.Out}
	f, ok := s.Family(out)
	if !ok {
		t.Fatalf("missing family %+v after rebase", out)
	}
	if f.Edges != 4 || f.Sources != 3 {
		t.Fatalf("rebased out family = %+v, want edges 4, sources 3", f)
	}
	if n := g.Overlay().Reseals; n == 0 {
		t.Fatal("reseal counter must advance")
	}
}
