package ldbc_test

import (
	"math"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/testgraph"
)

func gen(t testing.TB, cfg ldbc.Config) *ldbc.Dataset {
	t.Helper()
	ds, err := ldbc.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDeterminism(t *testing.T) {
	a := gen(t, ldbc.Config{SF: 0.05, Seed: 9})
	b := gen(t, ldbc.Config{SF: 0.05, Seed: 9})
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("same seed produced different datasets:\n%v\n%v", sa, sb)
	}
	// Spot-check some structure, not just counts.
	h := a.H
	for _, p := range a.Persons[:10] {
		da := len(testgraph.NeighborVIDs(a.Graph, p, h.Knows, catalog.Out, h.Person))
		db := len(testgraph.NeighborVIDs(b.Graph, p, h.Knows, catalog.Out, h.Person))
		if da != db {
			t.Fatalf("degree of person %d differs: %d vs %d", p, da, db)
		}
	}
	c := gen(t, ldbc.Config{SF: 0.05, Seed: 10})
	if c.Stats() == sa {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestScalingIsRoughlyLinear(t *testing.T) {
	small := gen(t, ldbc.Config{SF: 0.1, Seed: 1}).Stats()
	big := gen(t, ldbc.Config{SF: 0.4, Seed: 1}).Stats()
	ratio := float64(big.Vertices) / float64(small.Vertices)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("4x SF gave %0.1fx vertices (%d -> %d)", ratio, small.Vertices, big.Vertices)
	}
	if big.Edges <= small.Edges*2 {
		t.Fatalf("edges did not scale: %d -> %d", small.Edges, big.Edges)
	}
}

func TestSchemaIntegrity(t *testing.T) {
	ds := gen(t, ldbc.Config{SF: 0.05, Seed: 4})
	h, g := ds.H, ds.Graph

	// Every post has exactly one creator and one container forum.
	for _, post := range ds.Posts {
		if got := len(testgraph.NeighborVIDs(g, post, h.HasCreator, catalog.Out, h.Person)); got != 1 {
			t.Fatalf("post has %d creators", got)
		}
		if got := len(testgraph.NeighborVIDs(g, post, h.ContainerOf, catalog.In, h.Forum)); got != 1 {
			t.Fatalf("post has %d container forums", got)
		}
		if got := len(testgraph.NeighborVIDs(g, post, h.IsLocatedIn, catalog.Out, h.Country)); got != 1 {
			t.Fatalf("post has %d countries", got)
		}
	}
	// Every comment replies to exactly one message and has one creator.
	for _, c := range ds.Comments {
		if got := len(testgraph.NeighborVIDs(g, c, h.ReplyOf, catalog.Out, storage.AnyLabel)); got != 1 {
			t.Fatalf("comment has %d reply targets", got)
		}
		if got := len(testgraph.NeighborVIDs(g, c, h.HasCreator, catalog.Out, h.Person)); got != 1 {
			t.Fatalf("comment has %d creators", got)
		}
	}
	// KNOWS is symmetric.
	for _, p := range ds.Persons {
		for _, q := range testgraph.NeighborVIDs(g, p, h.Knows, catalog.Out, h.Person) {
			if !slices.Contains(testgraph.NeighborVIDs(g, q, h.Knows, catalog.Out, h.Person), p) {
				t.Fatalf("asymmetric KNOWS %d -> %d", p, q)
			}
		}
	}
	// Comment dates are at or after their parent's date.
	for _, c := range ds.Comments {
		cd := g.Prop(c, h.MCreation).I
		for _, parent := range testgraph.NeighborVIDs(g, c, h.ReplyOf, catalog.Out, storage.AnyLabel) {
			if pd := g.Prop(parent, h.MCreation).I; cd < pd {
				t.Fatalf("reply at day %d precedes parent at day %d", cd, pd)
			}
		}
	}
}

func TestDegreeDistributionIsSkewed(t *testing.T) {
	ds := gen(t, ldbc.Config{SF: 0.3, Seed: 1})
	h, g := ds.H, ds.Graph
	var degs []int
	total := 0
	maxDeg := 0
	for _, p := range ds.Persons {
		d := len(testgraph.NeighborVIDs(g, p, h.Knows, catalog.Out, h.Person))
		degs = append(degs, d)
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(total) / float64(len(degs))
	if avg < 5 || avg > 80 {
		t.Fatalf("implausible average knows degree %0.1f", avg)
	}
	// Heavy tail: the max degree should far exceed the average.
	if float64(maxDeg) < 3*avg {
		t.Fatalf("degree distribution not skewed: avg %0.1f max %d", avg, maxDeg)
	}
}

func TestParamGenDrawsValidParams(t *testing.T) {
	ds := gen(t, ldbc.Config{SF: 0.05, Seed: 2})
	pg := ds.NewParamGen(3)
	for i := 0; i < 200; i++ {
		ext := pg.PersonExt()
		if _, ok := ds.Graph.VertexByExt(ds.H.Person, ext); !ok {
			t.Fatalf("PersonExt %d does not resolve", ext)
		}
		msg, isPost := pg.MessageExt()
		label := ds.H.Comment
		if isPost {
			label = ds.H.Post
		}
		if _, ok := ds.Graph.VertexByExt(label, msg); !ok {
			t.Fatalf("MessageExt %d (post=%v) does not resolve", msg, isPost)
		}
		d := pg.Date()
		if d < ldbc.DayStart || d > ldbc.DayEnd {
			t.Fatalf("date %d outside activity window", d)
		}
		a, b := pg.TwoPersons()
		if a == b {
			t.Fatal("TwoPersons drew identical persons")
		}
		x, y := pg.TwoCountries()
		if x == y {
			t.Fatal("TwoCountries drew identical countries")
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{int(1.5 * float64(1<<30)), "1.5 GiB"},
	}
	for _, c := range cases {
		if got := ldbc.FmtBytes(c.n); got != c.want {
			t.Errorf("FmtBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestMinimumScaleFactor(t *testing.T) {
	ds := gen(t, ldbc.Config{SF: 0.0001, Seed: 1})
	if len(ds.Persons) < 30 {
		t.Fatalf("tiny SF should clamp persons to 30, got %d", len(ds.Persons))
	}
	if math.IsNaN(float64(ds.Stats().Bytes)) || ds.Stats().Bytes <= 0 {
		t.Fatal("stats broken at minimum scale")
	}
}
