package storage

import (
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// layoutGraph interleaves two labels' rows, A and a message label M
// clustered on "day", A's rows in ext order and M's not, with an edge from
// every M to an A and from every A to every third M.
func layoutGraph(t *testing.T, clustered bool) (g *Graph, a, m catalog.LabelID, et catalog.EdgeTypeID) {
	t.Helper()
	cat := catalog.New()
	a = catalog.Must(cat.AddLabel("A", catalog.PropDef{Name: "name", Kind: vector.KindString}))
	m = catalog.Must(cat.AddLabel("M", catalog.PropDef{Name: "day", Kind: vector.KindDate}, catalog.PropDef{Name: "text", Kind: vector.KindString}))
	if clustered {
		if err := cat.SetClusterKey(m, "day"); err != nil {
			t.Fatal(err)
		}
	}
	et = catalog.Must(cat.AddEdgeType("E", catalog.PropDef{Name: "w", Kind: vector.KindInt64}))
	g = NewGraph(cat)
	var as, ms []vector.VID
	for i := 0; i < 12; i++ {
		v, err := g.AddVertex(m, int64(100-i), vector.Date(int64(i*7%5)), vector.String_(string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, v)
		if i%2 == 0 {
			v, err := g.AddVertex(a, int64(i), vector.String_(string(rune('A'+i))))
			if err != nil {
				t.Fatal(err)
			}
			as = append(as, v)
		}
	}
	for i, v := range ms {
		addEdge(t, g, 0, et, v, as[i%len(as)], vector.Int64(int64(i)))
	}
	for i, v := range as {
		for j := i % 3; j < len(ms); j += 3 {
			addEdge(t, g, 0, et, v, ms[j], vector.Int64(int64(100*i+j)))
		}
	}
	return g, a, m, et
}

// edgesByExt lists every Out edge of g as (src ext, dst ext, w), in image
// order.
func edgesByExt(g *Graph, labels []catalog.LabelID, et catalog.EdgeTypeID) [][3]int64 {
	var out [][3]int64
	var b Batch
	for _, l := range labels {
		srcs := g.ScanLabel(l)
		g.NeighborsBatch(srcs, et, catalog.Out, AnyLabel, true, &b)
		for i, s := range srcs {
			for _, pc := range b.Pieces[b.Runs[i].Start:b.Runs[i].End] {
				cols, off := b.PieceCols(pc)
				for k, d := range b.PieceVIDs(pc) {
					out = append(out, [3]int64{g.ExtID(s), g.ExtID(d), cols.I64[0][off+k]})
				}
			}
		}
	}
	return out
}

// TestLayoutClustersAtFirstSeal: the first seal makes each label's VIDs
// contiguous, in the order of the labels' lowest loaded VIDs, and lays out
// the clustered label's rows by (key, external id); every vertex keeps its
// label, external id and properties, and every edge its endpoints and
// properties.
func TestLayoutClustersAtFirstSeal(t *testing.T) {
	g, a, m, et := layoutGraph(t, true)
	type row struct {
		label catalog.LabelID
		day   int64
		text  string
	}
	before := map[int64]row{}
	for v := 0; v < g.NumVertices(); v++ {
		vid := vector.VID(v)
		r := row{label: g.LabelOf(vid)}
		if r.label == m {
			r.day, r.text = g.Prop(vid, 0).I, g.Prop(vid, 1).S
		} else {
			r.text = g.Prop(vid, 0).S
		}
		before[g.ExtID(vid)] = r
	}
	g.SealCSR()
	ms, as := g.ScanLabel(m), g.ScanLabel(a)
	for i, v := range ms { // M loaded first: VIDs 0..11
		if v != vector.VID(i) {
			t.Fatalf("M's row %d is VID %d; labels go in the order of their lowest VID", i, v)
		}
	}
	for i, v := range as {
		if v != vector.VID(len(ms)+i) {
			t.Fatalf("A's row %d is VID %d", i, v)
		}
	}
	lo, key := g.Clustered(m)
	if lo != 0 || key == nil || key.Len() != len(ms) {
		t.Fatalf("Clustered(M) = %d, %v", lo, key)
	}
	for i := 1; i < len(ms); i++ {
		if k0, k1 := key.Int64s()[i-1], key.Int64s()[i]; k0 > k1 || (k0 == k1 && g.ExtID(ms[i-1]) > g.ExtID(ms[i])) {
			t.Fatalf("rows %d and %d are out of (key, ext) order", i-1, i)
		}
	}
	if _, key := g.Clustered(a); key != nil {
		t.Fatal("A has no clustering key")
	}
	for v := 0; v < g.NumVertices(); v++ {
		vid := vector.VID(v)
		want := before[g.ExtID(vid)]
		got := row{label: g.LabelOf(vid)}
		if got.label == m {
			got.day, got.text = g.Prop(vid, 0).I, g.Prop(vid, 1).S
		} else {
			got.text = g.Prop(vid, 0).S
		}
		if got != want {
			t.Fatalf("VID %d (ext %d) holds %+v, loaded as %+v", v, g.ExtID(vid), got, want)
		}
		if back, ok := g.VertexByExt(got.label, g.ExtID(vid)); !ok || back != vid {
			t.Fatalf("ext %d resolves to %d, not %d", g.ExtID(vid), back, vid)
		}
	}
	// The same edges, by external id, as the same load without the key.
	sorted, _, _, _ := layoutGraph(t, false)
	sorted.SealCSR()
	got, want := edgesByExt(g, []catalog.LabelID{a, m}, et), edgesByExt(sorted, []catalog.LabelID{a, m}, et)
	slices.SortFunc(got, func(x, y [3]int64) int { return slices.Compare(x[:], y[:]) })
	slices.SortFunc(want, func(x, y [3]int64) int { return slices.Compare(x[:], y[:]) })
	if !slices.Equal(got, want) {
		t.Fatalf("edges changed across the layout:\n got %v\nwant %v", got, want)
	}
}

// TestLayoutKeepsLabelByLabelLoad: a graph loaded label by label with no
// clustering key keeps every VID across the seal.
func TestLayoutKeepsLabelByLabelLoad(t *testing.T) {
	g, ps, cs, _, _, livesIn := csrGraph(t)
	ext := make([]int64, g.NumVertices())
	for v := range ext {
		ext[v] = g.ExtID(vector.VID(v))
	}
	before := edgesByExt(g, []catalog.LabelID{g.LabelOf(ps[0]), g.LabelOf(cs[0])}, livesIn)
	g.SealCSR()
	for v := range ext {
		if g.ExtID(vector.VID(v)) != ext[v] {
			t.Fatalf("VID %d moved: ext %d, was %d", v, g.ExtID(vector.VID(v)), ext[v])
		}
	}
	if after := edgesByExt(g, []catalog.LabelID{g.LabelOf(ps[0]), g.LabelOf(cs[0])}, livesIn); !slices.Equal(after, before) {
		t.Fatal("edges changed across the seal")
	}
}

// TestCSROffsetsFromLowestSource: a family's offsets span its sources only,
// from the lowest; a source outside reads empty, and a reseal that folds an
// edge of a tail source (a vertex committed after the seal) extends the span
// to it.
func TestCSROffsetsFromLowestSource(t *testing.T) {
	g, a, m, et := layoutGraph(t, true)
	g.SealCSR()
	key := AdjKey{Src: a, Et: et, Dst: m, Dir: catalog.Out}
	c := g.fams.Load().adj[key].snap.Load()
	as := g.ScanLabel(a)
	if c.lo != as[0] || len(c.offsets) != len(as)+1 {
		t.Fatalf("A's family spans %d sources from VID %d; want %d from %d", len(c.offsets)-1, c.lo, len(as), as[0])
	}
	if lo, hi := c.span(as[0] - 1); lo != hi {
		t.Fatal("a source below the family's lowest reads a run")
	}
	// A's rows last, so an edge of A's tail source comes last.
	before := edgesByExt(g, []catalog.LabelID{m, a}, et)
	g.BindVersions(&fakeVersions{v: 1, h: 1})
	tail := vector.VID(g.NumVertices())
	if err := g.CommitVertex(1, tail, a, 999, vector.String_("late")); err != nil {
		t.Fatal(err)
	}
	ms := g.ScanLabel(m)
	addEdge(t, g, 1, et, tail, ms[3], vector.Int64(7))
	g.SealCSR()
	c = g.fams.Load().adj[key].snap.Load()
	if c.lo != as[0] || int(c.lo)+len(c.offsets)-1 != int(tail)+1 {
		t.Fatalf("after the reseal A's family spans VIDs [%d,%d); want [%d,%d]", c.lo, int(c.lo)+len(c.offsets)-1, as[0], tail)
	}
	if got := nbrs(g, tail, et, catalog.Out, m); !slices.Equal(got, []vector.VID{ms[3]}) {
		t.Fatalf("the tail source reads %v", got)
	}
	after := edgesByExt(g, []catalog.LabelID{m, a}, et)
	if want := append(slices.Clone(before), [3]int64{999, g.ExtID(ms[3]), 7}); !slices.Equal(after, want) {
		t.Fatalf("edges after the reseal:\n got %v\nwant %v", after, want)
	}
}
