package queries_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// relaid loads ds's graph again in another order — label by label, but
// every Comment before any Post and each message label's rows in reverse,
// the edges after — and seals it. Its VIDs differ from ds's; the first seal
// lays both out from the data alone.
func relaid(t *testing.T, ds *ldbc.Dataset) *ldbc.Dataset {
	t.Helper()
	h, src, cat := ldbc.NewHandles(), ds.Graph, ds.H.Cat
	g := storage.NewGraph(h.Cat)
	var labels []catalog.LabelID
	for l := 0; l < cat.NumLabels(); l++ {
		labels = append(labels, catalog.LabelID(l))
	}
	i, j := slices.Index(labels, h.Post), slices.Index(labels, h.Comment)
	labels[i], labels[j] = labels[j], labels[i]
	for _, l := range labels {
		vids := slices.Clone(src.ScanLabel(l))
		if l == h.Post || l == h.Comment {
			slices.Reverse(vids)
		}
		for _, v := range vids {
			var props []vector.Value
			for p := range cat.LabelProps(l) {
				props = append(props, src.Prop(v, catalog.PropID(p)))
			}
			if _, err := g.AddVertex(l, src.ExtID(v), props...); err != nil {
				t.Fatal(err)
			}
		}
	}
	to := func(v vector.VID) vector.VID {
		nv, ok := g.LoadedVertex(src.LabelOf(v), src.ExtID(v))
		if !ok {
			t.Fatalf("vertex %d not copied", v)
		}
		return nv
	}
	var b storage.Batch
	for _, l := range labels {
		srcs := src.ScanLabel(l)
		for et := 0; et < cat.NumEdgeTypes(); et++ {
			defs := cat.EdgeTypeProps(catalog.EdgeTypeID(et))
			src.NeighborsBatch(srcs, catalog.EdgeTypeID(et), catalog.Out, storage.AnyLabel, true, &b)
			for r, s := range srcs {
				for _, pc := range b.Pieces[b.Runs[r].Start:b.Runs[r].End] {
					cols, off := b.PieceCols(pc)
					for k, d := range b.PieceVIDs(pc) {
						var props []vector.Value
						for q, def := range defs {
							props = append(props, cols.Value(q, def.Kind, off+k))
						}
						if err := g.AddEdge(catalog.EdgeTypeID(et), to(s), to(d), props...); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	g.SealCSR()
	return &ldbc.Dataset{Config: ds.Config, H: h, Graph: g}
}

// sameResult is the benchmark oracle's rule for two answers to one query:
// equal rows; or, when the engines broke ties differently, the same sort
// keys row by row and the same rows as a multiset, except those tied with
// the last row of a full top-N, of which either may keep any.
func sameResult(p plan.Plan, got, want *core.FlatBlock) bool {
	g, w := blockRows(got), blockRows(want)
	if slices.Equal(g, w) {
		return true
	}
	if !slices.Equal(got.Names, want.Names) || len(g) != len(w) {
		return false
	}
	var keys []int
	limit, ordered := 0, false
	for _, o := range p {
		if ob, ok := o.(*op.OrderBy); ok {
			keys, limit, ordered = nil, ob.Limit, true
			for _, k := range ob.Keys {
				if i := slices.Index(want.Names, k.Col); i >= 0 {
					keys = append(keys, i)
				} else {
					ordered = false
				}
			}
		}
	}
	keyOf := func(row []vector.Value) string {
		var s string
		for _, k := range keys {
			s += row[k].String() + "|"
		}
		return s
	}
	boundary, cut := "", false
	if ordered {
		for i := range want.Rows {
			if keyOf(got.Rows[i]) != keyOf(want.Rows[i]) {
				return false
			}
		}
		if n := len(want.Rows); limit > 0 && n == limit {
			boundary, cut = keyOf(want.Rows[n-1]), true
		}
	}
	count := map[string]int{}
	for i := range want.Rows {
		if !cut || keyOf(want.Rows[i]) != boundary {
			count[w[i]]++
		}
		if !cut || keyOf(got.Rows[i]) != boundary {
			count[g[i]]--
		}
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestLayoutIndependentOfLoadOrder loads one LDBC graph in two orders and
// runs every read query on both: each answer is the same under the
// benchmark oracle's rule, so what the seal lays out depends on the data,
// not on the order it arrived in.
func TestLayoutIndependentOfLoadOrder(t *testing.T) {
	ds := smallDataset(t)
	other := relaid(t, ds)
	a, _ := ds.Graph.VertexByExt(ds.H.Post, 1)
	b, _ := other.Graph.VertexByExt(other.H.Post, 1)
	if a == b {
		t.Fatal("both loads gave post 1 one VID; the test would not tell the orders apart")
	}
	pg := ds.NewParamGen(5)
	for _, q := range queries.All() {
		if q.Kind == queries.IU {
			continue
		}
		for _, mode := range []exec.Mode{exec.ModeFactorized, exec.ModeFused} {
			ra, rb := queries.NewRunner(ds, mode, nil), queries.NewRunner(other, mode, nil)
			for d := 0; d < 12; d++ {
				p := q.GenParams(ds, pg)
				want, _, err := ra.Execute(q, p)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := rb.Execute(q, p)
				if err != nil {
					t.Fatal(err)
				}
				var pl plan.Plan
				if q.Build != nil {
					pl = q.Build(ds.H, p)
				}
				if !sameResult(pl, got, want) {
					t.Fatalf("%s %s %v: the relaid graph answers\n%v\nthe generated one\n%v", q.Name, mode, p, blockRows(got), blockRows(want))
				}
			}
		}
	}
}

// TestSaveLoadAfterUpdatesReloadsClustered commits posts and comments (IU6,
// IU7) after the seal — tail rows, outside the clustered layout — then saves
// and reloads the graph. The reload's first seal clusters them with the rest,
// so it renumbers the loaded vertices; plans run straight on the loaded
// graph, from concurrent readers, are its first reads and answer as before.
func TestSaveLoadAfterUpdatesReloadsClustered(t *testing.T) {
	ds := smallDataset(t)
	r := queries.NewRunner(ds, exec.ModeFused, nil)
	pg := ds.NewParamGen(9)
	for i := 0; i < 30; i++ {
		for _, name := range []string{"IU6", "IU7"} {
			q, _ := queries.ByName(name)
			if _, _, err := r.Execute(q, q.GenParams(ds, pg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, key := ds.Graph.Clustered(ds.H.Post)
	if posts := len(ds.Graph.ScanLabel(ds.H.Post)); key == nil || key.Len() >= posts {
		t.Fatalf("committed posts should be tail rows: %d clustered of %d", key.Len(), posts)
	}
	type draw struct {
		q    *queries.Query
		p    queries.Params
		want *core.FlatBlock
	}
	// Messages seeked and expanded from come first: on a graph whose first
	// read came before its seal they would be other vertices.
	is5, _ := queries.ByName("IS5")
	is7, _ := queries.ByName("IS7")
	qs := append([]*queries.Query{is5, is7}, queries.All()...)
	var draws []draw
	for _, q := range qs {
		for d := 0; q.Build != nil && d < 6; d++ {
			p := q.GenParams(ds, pg)
			want, _, err := r.Execute(q, p)
			if err != nil {
				t.Fatal(err)
			}
			draws = append(draws, draw{q, p, want})
		}
	}
	posts := ds.Graph.ScanLabel(ds.H.Post)
	postExt := make([]int64, len(posts))
	ds.Graph.GatherExtIDs(posts, nil, postExt)
	var buf bytes.Buffer
	if err := ds.Graph.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	load := func() *storage.Graph {
		g, _, err := storage.Load(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := load()
	cat := g.Catalog()
	if pid, ok := cat.ClusterKey(ds.H.Post); !ok || cat.LabelProps(ds.H.Post)[pid].Name != "creationDate" {
		t.Fatal("the snapshot lost the clustering key")
	}
	loaded := make([]vector.VID, len(postExt))
	for i, ext := range postExt {
		loaded[i], _ = g.LoadedVertex(ds.H.Post, ext)
	}
	// run answers draws[w], draws[w+step], ... on a loaded graph.
	run := func(g *storage.Graph, w, step int) error {
		e := exec.New(exec.ModeFused)
		for i := w; i < len(draws); i += step {
			d := draws[i]
			got, err := e.Run(g, d.q.Build(ds.H, d.p))
			if err != nil {
				return err
			}
			if !sameResult(d.q.Build(ds.H, d.p), got.Block, d.want) {
				return fmt.Errorf("%s %v after reload:\n%v\nbefore\n%v", d.q.Name, d.p, blockRows(got.Block), blockRows(d.want))
			}
		}
		return nil
	}
	if err := run(g, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Concurrent first readers of another copy: one seals, the others wait.
	g2 := load()
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) { errs <- run(g2, w, 4) }(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for i, ext := range postExt {
		if v, _ := g.VertexByExt(ds.H.Post, ext); v != loaded[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the reload's seal kept every post's VID; the test would not catch a plan reading the load's numbering")
	}
	for _, l := range []catalog.LabelID{ds.H.Post, ds.H.Comment} {
		_, key := g.Clustered(l)
		if key == nil || key.Len() != len(g.ScanLabel(l)) || !slices.IsSorted(key.Int64s()) {
			t.Fatalf("label %d reloads unclustered", l)
		}
	}
}
