package storage

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ges/internal/catalog"
	"ges/internal/testgraph/edgemodel"
	"ges/internal/vector"
)

// csrGraph builds a two-label graph with deliberately unsorted insert order
// so sealing has real work to do: persons 0..9 (ext 100..109), cities 0..2
// (ext 500..502), LIVES_IN edges with a `since` date prop.
func csrGraph(t *testing.T) (*Graph, []vector.VID, []vector.VID, catalog.LabelID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	g, person, city, livesIn := twoLabelGraph(t)
	var ps, cs []vector.VID
	for i := 0; i < 10; i++ {
		v, err := g.AddVertex(person, int64(100+i), vector.String_("p"), vector.Int64(int64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, v)
	}
	for i := 0; i < 3; i++ {
		v, err := g.AddVertex(city, int64(500+i), vector.String_("c"))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, v)
	}
	// Descending destination order per source, so the edge log is
	// reverse-sorted.
	for pi := range ps {
		for ci := len(cs) - 1; ci >= 0; ci-- {
			if csrEdge(pi, ci) {
				addEdge(t, g, 0, livesIn, ps[pi], cs[ci], vector.Date(csrSince(pi, ci)))
			}
		}
	}
	return g, ps, cs, person, city, livesIn
}

// csrEdge reports whether csrGraph links person pi to city ci, and csrSince is
// that edge's date.
func csrEdge(pi, ci int) bool   { return (pi+ci)%2 == 0 }
func csrSince(pi, ci int) int64 { return int64(1000*pi + ci) }

// nbrs returns src's neighbours as v reads them: one one-source
// NeighborsBatch, its run copied.
func nbrs(v View, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) []vector.VID {
	var b Batch
	v.NeighborsBatch([]vector.VID{src}, et, dir, dst, false, &b)
	return append([]vector.VID(nil), b.Run(0)...)
}

// dated is one neighbour with its first edge property, the fixtures' date.
type dated struct {
	dst   vector.VID
	since int64
}

// datedNbrs is nbrs with each neighbour's first edge property.
func datedNbrs(v View, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) []dated {
	var b Batch
	v.NeighborsBatch([]vector.VID{src}, et, dir, dst, true, &b)
	var out []dated
	for _, p := range b.Pieces {
		cols, off := b.PieceCols(p)
		for k, n := range b.PieceVIDs(p) {
			out = append(out, dated{n, cols.I64[0][off+k]})
		}
	}
	return out
}

// flattenBatch concatenates batch runs in order.
func flattenBatch(b *Batch) []vector.VID {
	var out []vector.VID
	for i := range b.Runs {
		out = append(out, b.Run(i)...)
	}
	return out
}

func TestSealCSRSortsNeighbors(t *testing.T) {
	g, ps, cs, _, city, livesIn := csrGraph(t)
	if g.CSRSealed() {
		t.Fatal("graph sealed before SealCSR")
	}
	if n := g.SealCSR(); n == 0 {
		t.Fatal("SealCSR sealed no families")
	}
	if !g.CSRSealed() {
		t.Fatal("CSRSealed false after SealCSR")
	}
	for pi, p := range ps {
		after := nbrs(g, p, livesIn, catalog.Out, city)
		var want []vector.VID
		for ci, c := range cs {
			if csrEdge(pi, ci) {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("src %d: sealed neighbor set changed: got %v want %v", p, after, want)
		}
	}
}

func TestSealCSRKeepsEdgePropsAligned(t *testing.T) {
	g, ps, cs, _, city, livesIn := csrGraph(t)
	want := map[vector.VID][]dated{}
	for pi, p := range ps {
		for ci := len(cs) - 1; ci >= 0; ci-- {
			if csrEdge(pi, ci) {
				want[p] = append(want[p], dated{dst: cs[ci], since: csrSince(pi, ci)})
			}
		}
	}
	g.SealCSR()
	for _, p := range ps {
		got := datedNbrs(g, p, livesIn, catalog.Out, city)
		w := append([]dated(nil), want[p]...)
		sort.Slice(w, func(i, j int) bool { return w[i].dst < w[j].dst })
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("src %d: props misaligned after seal: got %v want %v", p, got, w)
		}
	}
}

// models holds the edge-list model of every graph the tests write through
// addEdge: the reference batchMatchesModel reads.
var models sync.Map // *Graph → *edgemodel.Model

// addEdge writes an edge into g — a bulk edge at version 0, a commit at ver
// after — and, once g has accepted it, into g's model.
func addEdge(t testing.TB, g *Graph, ver uint64, et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) {
	t.Helper()
	var err error
	if ver == 0 {
		err = g.AddEdge(et, src, dst, props...)
	} else {
		err = g.CommitEdge(ver, et, src, dst, props...)
	}
	if err != nil {
		t.Fatal(err)
	}
	m, _ := models.LoadOrStore(g, new(edgemodel.Model))
	m.(*edgemodel.Model).Add(edgemodel.Edge{Et: et, Src: src, Dst: dst, SrcLabel: g.LabelOf(src), DstLabel: g.LabelOf(dst), Ver: ver, Props: props})
}

// batchMatchesModel asserts the NeighborsBatch contract for one
// parameterization against the edge-list model of v's graph (addEdge): the
// model's pieces at the view's version — destination label, neighbors and,
// with props, every edge-property row of every kind — with Sorted exactly
// when the model has no run of two pieces. A piece views its family's image
// (at the run's own offsets) iff its run has no delta entry visible at the
// read's version; otherwise the batch owns it. It returns the batch.
func batchMatchesModel(t *testing.T, v View, srcs []vector.VID, et catalog.EdgeTypeID,
	dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) *Batch {
	t.Helper()
	if edgemodel.AnyLabel != AnyLabel {
		t.Fatal("the model's wildcard label is not storage.AnyLabel")
	}
	var b Batch
	v.NeighborsBatch(srcs, et, dir, dstLabel, withProps, &b)
	g, ver := graphOf(v)
	m := new(edgemodel.Model)
	if rec, ok := models.Load(g); ok {
		m = rec.(*edgemodel.Model)
	}
	want, sorted := m.Read(srcs, et, dir, dstLabel, ver)
	if len(b.Runs) != len(srcs) {
		t.Fatalf("got %d runs for %d srcs", len(b.Runs), len(srcs))
	}
	if b.Sorted != sorted {
		t.Fatalf("dir=%v dst=%v: Sorted=%v, model Sorted=%v", dir, dstLabel, b.Sorted, sorted)
	}
	var kinds []vector.Kind
	if withProps {
		for _, d := range g.Catalog().EdgeTypeProps(et) {
			kinds = append(kinds, d.Kind)
		}
	}
	if got, want := pieceLines(&b, withProps), edgemodel.Lines(want, kinds); !reflect.DeepEqual(got, want) {
		t.Fatalf("dir=%v dst=%v: pieces\n%v\nwant\n%v", dir, dstLabel, got, want)
	}
	for k, p := range b.Pieces {
		src, mp := srcs[want[k].Row], want[k]
		c := g.fams.Load().adj[AdjKey{Src: g.LabelOf(src), Et: et, Dst: mp.Label, Dir: mp.Dir}].snap.Load()
		lo, _ := c.span(src)
		touched := c.delta.runs.Load(src).visible(ver) > 0
		if got := b.PieceVIDs(p); ViewsImage(g, got) == touched || !touched && &got[0] != &c.neighbors[lo] {
			t.Fatalf("src %d (dir=%v dst=%v) piece %d: views the image %v, its run has visible delta entries %v", src, dir, dstLabel, k, ViewsImage(g, got), touched)
		}
	}
	return &b
}

// pieceLines renders b one line per piece, as edgemodel.Lines renders the
// model: row, label, neighbors and, with props, every property column's rows.
func pieceLines(b *Batch, withProps bool) []string {
	var out []string
	for i, r := range b.Runs {
		for _, p := range b.Pieces[r.Start:r.End] {
			line := fmt.Sprintf("row %d label %d %v", i, p.Label, b.PieceVIDs(p))
			if withProps {
				cols, off := b.PieceCols(p)
				for q := range cols.I64 {
					switch {
					case cols.I64[q] != nil:
						line += fmt.Sprint(" ", cols.I64[q][off:off+p.Len()])
					case cols.F64[q] != nil:
						line += fmt.Sprint(" ", cols.F64[q][off:off+p.Len()])
					case cols.Str[q] != nil:
						line += fmt.Sprintf(" %q", cols.Str[q][off:off+p.Len()])
					}
				}
			}
			out = append(out, line)
		}
	}
	return out
}

// graphOf returns the graph a storage view reads and the version it reads at.
func graphOf(v View) (*Graph, uint64) {
	if vv, ok := v.(VersionView); ok {
		return vv.Graph, vv.ver
	}
	g := v.(*Graph)
	return g, g.readVersion()
}

// matrixGraph is the equivalence-matrix fixture: labels A and B, one edge
// type carrying a property of every kind, and edges between all four label
// pairs (duplicates and descending insert order included), so a request from
// either label fans out over two families under AnyLabel, over four under
// Both, and a request from A ∪ B mixes source labels. The vertices load
// label by label, so the seal keeps their VIDs (the model's) and B's families
// have sources that start past VID 0.
func matrixGraph(t *testing.T) (g *Graph, as, bs []vector.VID, a, b catalog.LabelID, et catalog.EdgeTypeID) {
	t.Helper()
	cat := catalog.New()
	a = catalog.Must(cat.AddLabel("A"))
	b = catalog.Must(cat.AddLabel("B"))
	et = catalog.Must(cat.AddEdgeType("E",
		catalog.PropDef{Name: "since", Kind: vector.KindDate},
		catalog.PropDef{Name: "w", Kind: vector.KindFloat64},
		catalog.PropDef{Name: "note", Kind: vector.KindString}))
	g = NewGraph(cat)
	all := make([]vector.VID, 11)
	for pass, label := range []catalog.LabelID{a, b} {
		for i := pass; i < len(all); i += 2 {
			v, err := g.AddVertex(label, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			all[i] = v
			if label == a {
				as = append(as, v)
			} else {
				bs = append(bs, v)
			}
		}
	}
	n := 0
	for i := range all {
		for j := len(all) - 1; j >= 0; j-- {
			if (i*2+j)%3 != 0 || i == 10 { // all[10] has in-edges only
				continue
			}
			for rep := 0; rep <= (i+j)%2; rep++ { // every other pair twice
				n++
				addEdge(t, g, 0, et, all[i], all[j], vector.Date(int64(n)), vector.Float64(float64(n)/2), vector.String_(string(rune('a'+n%26))))
			}
		}
	}
	return g, as, bs, a, b, et
}

// TestNeighborsBatchMatrix runs {concrete, AnyLabel} × {Out, In, Both} ×
// {uniform, mixed source labels} × {no props, props} over source lists with
// NilVID holes and VIDs beyond the base range (empty runs), on a pristine
// sealed graph (every piece a view of its image, labelled with its family's
// destination) and again with a live storage delta (changed runs merged).
// A one-source read must agree with every run, holes included.
func TestNeighborsBatchMatrix(t *testing.T) {
	g, as, bs, a, b, et := matrixGraph(t)
	g.SealCSR()
	beyond := vector.VID(g.NumVertices() + 3)
	holes := func(vs []vector.VID) []vector.VID {
		out := []vector.VID{vector.NilVID}
		for i, v := range vs {
			out = append(out, v)
			if i%2 == 0 {
				out = append(out, vector.NilVID, beyond)
			}
		}
		return out
	}
	var mixed []vector.VID
	for i := range bs {
		mixed = append(mixed, as[i], bs[i], bs[(i+1)%len(bs)])
	}
	sources := map[string][]vector.VID{
		"uniform-A": holes(as), "uniform-B": holes(bs), "mixed": holes(mixed),
		"only-holes": {vector.NilVID, beyond}, "empty": nil,
	}
	run := func(t *testing.T, pristine bool) {
		t.Helper()
		for name, srcs := range sources {
			for _, dst := range []catalog.LabelID{a, b, AnyLabel} {
				for _, dir := range []catalog.Direction{catalog.Out, catalog.In, catalog.Both} {
					for _, withProps := range []bool{false, true} {
						got := batchMatchesModel(t, g, srcs, et, dir, dst, withProps)
						for i, s := range srcs { // NilVID and beyond-range rows included
							if d := len(nbrs(g, s, et, dir, dst)); d != got.RunLen(i) {
								t.Fatalf("%s dst=%v dir=%v: a one-source read of %d holds %d, its run %d", name, dst, dir, s, d, got.RunLen(i))
							}
						}
						single := dst != AnyLabel && dir != catalog.Both && name != "mixed"
						for k, p := range got.Pieces {
							if pristine && !ViewsImage(g, got.PieceVIDs(p)) {
								t.Fatalf("%s dst=%v dir=%v: piece %d copied from a pristine image", name, dst, dir, k)
							}
							if dst == AnyLabel && p.Label != g.LabelOf(got.PieceVIDs(p)[0]) {
								t.Fatalf("%s dir=%v: piece %d labelled %d", name, dir, k, p.Label)
							}
						}
						if single && name != "only-holes" && name != "empty" && got.VIDs == nil {
							t.Fatalf("%s dst=%v dir=%v: a single-family request names no image", name, dst, dir)
						}
						if !single && got.VIDs != nil {
							t.Fatalf("%s dst=%v dir=%v: a request over several families names one image", name, dst, dir)
						}
					}
				}
			}
		}
	}
	t.Run("sealed", func(t *testing.T) { run(t, true) })

	// A live delta in every family the requests touch.
	g.SetResealPolicy(1e9, 1<<30)
	for i := range bs {
		for _, e := range [][2]vector.VID{{as[i], bs[0]}, {bs[i], as[0]}, {as[i], as[1]}, {bs[i], bs[1]}} {
			addEdge(t, g, uint64(1+i), et, e[0], e[1], vector.Date(int64(900+i)), vector.Float64(9), vector.String_("z"))
		}
	}
	t.Run("delta", func(t *testing.T) { run(t, false) })
}

// TestNeighborsBatchMatchesModel checks the batch contract against the
// edge-list model on a graph whose first read seals it ("unsealed") and on
// one sealed explicitly.
func TestNeighborsBatchMatchesModel(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		g, ps, cs, person, city, livesIn := csrGraph(t)
		srcs := append(append([]vector.VID{vector.NilVID}, ps...), vector.NilVID)
		if sealed {
			g.SealCSR()
		}
		name := map[bool]string{false: "unsealed", true: "sealed"}[sealed]
		t.Run(name, func(t *testing.T) {
			batchMatchesModel(t, g, srcs, livesIn, catalog.Out, city, false)
			batchMatchesModel(t, g, srcs, livesIn, catalog.Out, city, true)
			batchMatchesModel(t, g, srcs, livesIn, catalog.Out, AnyLabel, false)
			batchMatchesModel(t, g, srcs, livesIn, catalog.Both, city, false)
			batchMatchesModel(t, g, cs, livesIn, catalog.In, person, true)
			// A mixed-label source list.
			mixed := append(append([]vector.VID(nil), ps[:3]...), cs...)
			batchMatchesModel(t, g, mixed, livesIn, catalog.Out, city, false)
			// Empty src list.
			batchMatchesModel(t, g, nil, livesIn, catalog.Out, city, false)
			if !g.CSRSealed() {
				t.Fatal("the first read must seal the graph")
			}
		})
	}
}

// TestNeighborsBatchViewsImage: a sealed single-family batch is pieces
// viewing the image, which VIDs names, and Sorted.
func TestNeighborsBatchViewsImage(t *testing.T) {
	g, ps, _, _, city, livesIn := csrGraph(t)
	g.SealCSR()
	var b Batch
	g.NeighborsBatch(ps, livesIn, catalog.Out, city, false, &b)
	if b.VIDs == nil || !b.Sorted || len(b.Pieces) == 0 {
		t.Fatalf("sealed single-family batch: VIDs=%v Sorted=%v pieces=%d", b.VIDs, b.Sorted, len(b.Pieces))
	}
	for _, p := range b.Pieces {
		if got := b.PieceVIDs(p); &got[0] != &b.VIDs[p.Lo] {
			t.Fatalf("piece %+v does not alias the image", p)
		}
	}
	// The first read of a graph still in the bulk phase seals it and views
	// the same way.
	g2, ps2, _, _, city2, livesIn2 := csrGraph(t)
	var b2 Batch
	g2.NeighborsBatch(ps2, livesIn2, catalog.Out, city2, false, &b2)
	if b2.VIDs == nil || !ViewsImage(g2, b2.PieceVIDs(b2.Pieces[0])) || !g2.CSRSealed() {
		t.Fatalf("first read: VIDs=%v sealed=%v, want an image view", b2.VIDs, g2.CSRSealed())
	}
	if !reflect.DeepEqual(flattenBatch(&b), flattenBatch(&b2)) {
		t.Fatal("the first read's seal serves a different image than SealCSR")
	}
}

func TestCSRPersistsAcrossMutation(t *testing.T) {
	g, ps, cs, _, city, livesIn := csrGraph(t)
	g.SealCSR()
	if !g.CSRSealed() {
		t.Fatal("not sealed")
	}
	// A committed edge lands in the delta overlay: the snapshot stays
	// published, and the batch stays sorted: ps[0]'s run is merged, every
	// other one still views the image.
	srcs := append([]vector.VID(nil), ps...)
	addEdge(t, g, 1, livesIn, ps[0], cs[0], vector.Date(7))
	if !g.CSRSealed() {
		t.Fatal("snapshot must persist across CommitEdge")
	}
	var b Batch
	g.NeighborsBatch(srcs, livesIn, catalog.Out, city, true, &b)
	if !b.Sorted {
		t.Fatal("overlay batch is not Sorted")
	}
	for i, p := range b.Pieces {
		if ViewsImage(g, b.PieceVIDs(p)) != (i > 0) {
			t.Fatalf("piece %d views the image: %v; only ps[0]'s run is changed", i, !(i > 0))
		}
	}
	batchMatchesModel(t, g, srcs, livesIn, catalog.Out, city, true)

	// A quiesced re-seal after compaction must agree with what the overlay
	// already served.
	g.SealCSR()
	batchMatchesModel(t, g, srcs, livesIn, catalog.Out, city, true)

}

func TestNeighborsBatchEmptyFamily(t *testing.T) {
	g, person, city, livesIn := twoLabelGraph(t)
	var ps []vector.VID
	for i := 0; i < 4; i++ {
		v, err := g.AddVertex(person, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, v)
	}
	// No edges at all: the LIVES_IN family does not even exist.
	var b Batch
	g.NeighborsBatch(ps, livesIn, catalog.Out, city, false, &b)
	if len(b.Runs) != len(ps) {
		t.Fatalf("runs = %d", len(b.Runs))
	}
	for i := range b.Runs {
		if len(b.Run(i)) != 0 {
			t.Fatalf("expected empty run %d", i)
		}
	}
	if !b.Sorted {
		t.Fatal("all-empty batch is trivially sorted")
	}
	g.SealCSR() // zero families: must not panic
	batchMatchesModel(t, g, ps, livesIn, catalog.Out, city, false)
}

// TestMemBytesAccountsCSR: a family is held once. The bulk phase accounts its
// edge log (source, destination and the date property: 16 B per directed
// entry), sealing trades it for the image (4 B of offset per source, 12 B per
// entry), and delta entries are accounted on top of the image.
func TestMemBytesAccountsCSR(t *testing.T) {
	g, ps, cs, _, _, livesIn := csrGraph(t)
	topology := func() int {
		n := 0
		for _, l := range g.fams.Load().adj {
			n += l.memBytes()
		}
		return n
	}
	entries := 2 * g.NumEdges()
	if got := topology(); got != 16*entries {
		t.Fatalf("bulk phase accounts %d B of edge log, want %d", got, 16*entries)
	}
	bulk := g.MemBytes()
	g.SealCSR()
	if n := FamiliesHoldingLog(g); n != 0 {
		t.Fatalf("%d families keep their log after the seal", n)
	}
	image := 0
	for _, l := range g.fams.Load().adj {
		c := l.snap.Load()
		image += 4*len(c.offsets) + 12*len(c.neighbors)
	}
	if got := topology(); got != image {
		t.Fatalf("sealed families account %d B, their images hold %d", got, image)
	}
	sealed := g.MemBytes()
	if sealed-bulk != image-16*entries {
		t.Fatalf("sealing must trade the log for the image: bulk=%d sealed=%d", bulk, sealed)
	}
	g.SetResealPolicy(1e9, 1<<30)
	if err := g.CommitEdge(1, livesIn, ps[0], cs[0], vector.Date(1)); err != nil {
		t.Fatal(err)
	}
	if withDelta := g.MemBytes(); withDelta <= sealed {
		t.Fatalf("a delta insert must be accounted: sealed=%d with delta=%d", sealed, withDelta)
	}
}

// TestLatestBatchUnderCommits races batched readers of a graph no manager is
// bound to — reads at Latest, which see every delta entry whatever its stamp
// — against commits (run with -race). A read loads each delta run once and
// counts and merges that immutable run, so every run a reader sees is the
// one-source read of its source at some moment — the run before the commits,
// plus a prefix of the edges committed to it, with their properties.
func TestLatestBatchUnderCommits(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 12, 5)
	g.SetResealPolicy(1e9, 1<<30)
	type row = dated
	read := func(src vector.VID) []row { return datedNbrs(g, src, livesIn, catalog.Out, city) }
	const writes = 40
	base := make([][]row, len(ps))
	adds := make([][]row, len(ps)) // the edges each source gains, in write order
	for i, p := range ps {
		base[i] = read(p)
		for k := 0; k < writes; k++ {
			adds[i] = append(adds[i], row{cs[(i+k)%len(cs)], int64(i)<<32 | int64(k)})
		}
	}
	// model is src i's run once its first c writes have landed: image entries
	// first among equal destinations, then the writes in order.
	model := func(i, c int) []row {
		m := append(append([]row(nil), base[i]...), adds[i][:c]...)
		sort.SliceStable(m, func(a, b int) bool { return m[a].dst < m[b].dst })
		return m
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < writes; k++ {
				for i := w; i < len(ps); i += 2 {
					if err := g.CommitEdge(uint64(1+k), livesIn, ps[i], adds[i][k].dst, vector.Date(adds[i][k].since)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func() {
		var b Batch
		g.NeighborsBatch(ps, livesIn, catalog.Out, city, true, &b)
		for i, r := range b.Runs {
			var got []row
			for _, p := range b.Pieces[r.Start:r.End] {
				cols, off := b.PieceCols(p)
				for k, d := range b.PieceVIDs(p) {
					got = append(got, row{d, cols.I64[0][off+k]})
				}
			}
			c := len(got) - len(base[i])
			if c < 0 || c > writes || !reflect.DeepEqual(got, model(i, c)) {
				t.Fatalf("src %d: batch run %v is no moment of its one-source read", ps[i], got)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	for i, p := range ps {
		if got := read(p); !reflect.DeepEqual(got, model(i, writes)) {
			t.Fatalf("src %d: quiesced one-source run %v", p, got)
		}
	}
	check()
}
