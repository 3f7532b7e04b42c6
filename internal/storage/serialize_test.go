package storage_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

func TestSnapshotRoundTripFixture(t *testing.T) {
	f := testgraph.New()
	var buf bytes.Buffer
	if err := f.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, cat2, err := storage.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, f.Graph, g2, cat2)
}

// TestSnapshotRoundTripLDBC saves a generated graph holding post-seal
// commits that carry edge properties, left in the deltas (no reseal), so Save
// reads merged runs with their properties, and compares the reload with it.
func TestSnapshotRoundTripLDBC(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, h, ps := ds.Graph, ds.H, ds.Persons
	g.SetResealPolicy(1e9, 1<<30)
	for i, p := range ps {
		q, post := ps[(i*5+1)%len(ps)], ds.Posts[(i*3)%len(ds.Posts)]
		if err := g.CommitEdge(uint64(1+i), h.Knows, p, q, vector.Date(int64(ldbc.DayStart+i))); err != nil {
			t.Fatal(err)
		}
		if err := g.CommitEdge(uint64(1+i), h.Likes, p, post, vector.Date(int64(ldbc.DayStart+2*i))); err != nil {
			t.Fatal(err)
		}
	}
	if ov := g.Overlay(); ov.Inserts < int64(4*len(ps)) || ov.Reseals != 0 {
		t.Fatalf("the commits must stay in the deltas: %+v", ov)
	}
	var buf bytes.Buffer
	if err := ds.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, cat2, err := storage.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, ds.Graph, g2, cat2)
}

// assertGraphsEqual compares two graphs structurally: label censuses, every
// vertex's properties, and every vertex's out-neighbor multiset (by external
// ID) with edge properties.
func assertGraphsEqual(t *testing.T, a, b *storage.Graph, catB *catalog.Catalog) {
	t.Helper()
	catA := a.Catalog()
	if catA.NumLabels() != catB.NumLabels() || catA.NumEdgeTypes() != catB.NumEdgeTypes() {
		t.Fatalf("catalog shape differs: %d/%d labels, %d/%d edge types",
			catA.NumLabels(), catB.NumLabels(), catA.NumEdgeTypes(), catB.NumEdgeTypes())
	}
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for l := 0; l < catA.NumLabels(); l++ {
		id := catalog.LabelID(l)
		if catA.LabelName(id) != catB.LabelName(id) {
			t.Fatalf("label %d name differs", l)
		}
		defs := catA.LabelProps(id)
		for _, va := range a.ScanLabel(id) {
			ext := a.ExtID(va)
			vb, ok := b.VertexByExt(id, ext)
			if !ok {
				t.Fatalf("vertex %s/%d missing after reload", catA.LabelName(id), ext)
			}
			for p := range defs {
				pa := a.Prop(va, catalog.PropID(p))
				pb := b.Prop(vb, catalog.PropID(p))
				if !vector.Equal(pa, pb) {
					t.Fatalf("vertex %s/%d prop %s differs: %v vs %v",
						catA.LabelName(id), ext, defs[p].Name, pa, pb)
				}
			}
			// Out-neighborhood per edge type.
			for e := 0; e < catA.NumEdgeTypes(); e++ {
				et := catalog.EdgeTypeID(e)
				na := neighborExtIDs(a, va, et)
				nb := neighborExtIDs(b, vb, et)
				if strings.Join(na, ",") != strings.Join(nb, ",") {
					t.Fatalf("vertex %s/%d %s-neighbors differ:\n%v\n%v",
						catA.LabelName(id), ext, catA.EdgeTypeName(et), na, nb)
				}
			}
		}
	}
}

func neighborExtIDs(g *storage.Graph, v vector.VID, et catalog.EdgeTypeID) []string {
	var out []string
	for _, e := range testgraph.Edges(g, v, et, catalog.Out, storage.AnyLabel) {
		out = append(out, fmt.Sprint(g.ExtID(e.Dst), e.Props))
	}
	sort.Strings(out)
	return out
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := storage.Load(bytes.NewBufferString("not a snapshot at all")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, _, err := storage.Load(bytes.NewBufferString("GESSNAP1")); err == nil {
		t.Fatal("truncated snapshot must be rejected")
	}
	// Truncation mid-body.
	f := testgraph.New()
	var buf bytes.Buffer
	if err := f.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := storage.Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot must be rejected")
	}
}
