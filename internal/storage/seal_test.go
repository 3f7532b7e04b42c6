package storage_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// TestSealReleasesBuilder keeps the second adjacency copy from coming back:
// a generated dataset holds no bulk-phase edge log in any family and fits the
// one-copy size (10.4 MB at simSF 1; it was 24.0 MB when the bulk phase's
// slot arrays were kept), and neither does one after reseals forced on every
// mutation while readers and two writers run — whose final reads must equal
// the sequential model. Meant for -race.
func TestSealReleasesBuilder(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, h := ds.Graph, ds.H
	if n := storage.FamiliesHoldingLog(g); n != 0 {
		t.Fatalf("%d families still hold an edge log after the seal", n)
	}
	if b := g.MemBytes(); b > 12<<20 {
		t.Fatalf("MemBytes = %d, more than one copy of the adjacency (12 MiB)", b)
	}

	// Every mutation reseals both KNOWS families, inline on the writer.
	g.SetResealSubmit(nil)
	g.SetResealPolicy(1e-9, 1)
	srcs := ds.Persons[:48]
	var b storage.Batch
	g.NeighborsBatch(srcs, h.Knows, catalog.Out, h.Person, false, &b)
	model := make([][]vector.VID, len(srcs))
	adds, dels := make([]vector.VID, len(srcs)), make([]vector.VID, len(srcs))
	for i, p := range srcs {
		run := append([]vector.VID(nil), b.Run(i)...)
		// One absent pair to toggle (it ends present), one present edge to
		// delete for good; sources alternate between the two writers.
		adds[i], dels[i] = vector.NilVID, vector.NilVID
		for _, q := range ds.Persons[len(srcs):] {
			if k := sort.Search(len(run), func(k int) bool { return run[k] >= q }); k == len(run) || run[k] != q {
				adds[i] = q
				break
			}
		}
		if len(run) > 0 {
			dels[i] = run[len(run)/2]
			at := sort.Search(len(run), func(k int) bool { return run[k] >= dels[i] })
			run = append(run[:at], run[at+1:]...)
		}
		run = append(run, adds[i])
		sort.Slice(run, func(x, y int) bool { return run[x] < run[y] })
		model[i] = run
		if adds[i] == vector.NilVID || p == adds[i] {
			t.Fatalf("no absent KNOWS pair for person %d", p)
		}
	}

	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var b storage.Batch
			for !stop.Load() {
				g.NeighborsBatch(srcs, h.Knows, catalog.Out, h.Person, true, &b)
				if !b.Sorted {
					t.Error("reader saw an unsorted batch under forced reseals")
					return
				}
				for i := range b.Runs {
					run := b.Run(i)
					if !sort.SliceIsSorted(run, func(x, y int) bool { return run[x] < run[y] }) {
						t.Errorf("reader saw an unsorted run for %d: %v", srcs[i], run)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(srcs); i += 2 {
					if round == 1 {
						if !g.DeleteEdge(h.Knows, srcs[i], adds[i]) {
							t.Errorf("toggle delete %d->%d failed", srcs[i], adds[i])
						}
						continue
					}
					if err := g.AddEdge(h.Knows, srcs[i], adds[i], vector.Date(int64(ldbc.DayStart))); err != nil {
						t.Error(err)
					}
					if round == 0 && dels[i] != vector.NilVID && !g.DeleteEdge(h.Knows, srcs[i], dels[i]) {
						t.Errorf("delete %d->%d failed", srcs[i], dels[i])
					}
				}
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}
	if g.Overlay().Reseals == 0 {
		t.Fatal("policy should have forced reseals")
	}
	if n := storage.FamiliesHoldingLog(g); n != 0 {
		t.Fatalf("%d families hold an edge log after reseals", n)
	}
	g.NeighborsBatch(srcs, h.Knows, catalog.Out, h.Person, false, &b)
	for i := range srcs {
		got := b.Run(i)
		if len(got) != len(model[i]) {
			t.Fatalf("person %d: run %v, model %v", srcs[i], got, model[i])
		}
		for k := range got {
			if got[k] != model[i][k] {
				t.Fatalf("person %d: run %v, model %v", srcs[i], got, model[i])
			}
		}
	}
}

// bulkGraph loads a two-label graph in the bulk phase: 96 vertices
// alternating A and B, one edge type with a date and a string property, and
// edges in descending destination order with duplicates, so the seal has real
// sorting to do in every family.
func bulkGraph(t *testing.T) (*storage.Graph, []vector.VID, []catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	cat := catalog.New()
	labels := []catalog.LabelID{catalog.Must(cat.AddLabel("A")), catalog.Must(cat.AddLabel("B"))}
	et := catalog.Must(cat.AddEdgeType("E",
		catalog.PropDef{Name: "since", Kind: vector.KindDate},
		catalog.PropDef{Name: "note", Kind: vector.KindString}))
	g := storage.NewGraph(cat)
	var vs []vector.VID
	for i := 0; i < 96; i++ {
		v, err := g.AddVertex(labels[i%2], int64(i))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	rng := rand.New(rand.NewSource(5))
	for i, v := range vs {
		for j := len(vs) - 1; j >= 0; j-- {
			if rng.Intn(9) > 0 {
				continue
			}
			for rep := 0; rep <= (i+j)%3/2; rep++ { // a third of the pairs twice
				n := int64(i*1000 + j*2 + rep)
				if err := g.AddEdge(et, v, vs[j], vector.Date(n), vector.String_(fmt.Sprint(n))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, vs, labels, et
}

// TestFirstReadsSealOnce: eight goroutines make the first reads of a graph
// still in the bulk phase, each starting with a different entry point
// (NeighborsBatch, Neighbors, Degree). The graph seals exactly once — one
// statistics epoch — and every read equals the same read on a twin sealed
// explicitly. Meant for -race.
func TestFirstReadsSealOnce(t *testing.T) {
	g, vs, labels, et := bulkGraph(t)
	twin, _, _, _ := bulkGraph(t)
	twin.SealCSR()
	if g.CSRSealed() {
		t.Fatal("a loaded graph must stay in the bulk phase until its first read")
	}
	// read renders every read a view offers, starting at entry point first.
	read := func(g *storage.Graph, first int) string {
		var sb strings.Builder
		var b storage.Batch
		for k := 0; k < 3; k++ {
			for _, dst := range append(labels, storage.AnyLabel) {
				for _, dir := range []catalog.Direction{catalog.Out, catalog.In, catalog.Both} {
					switch (first + k) % 3 {
					case 0:
						g.NeighborsBatch(vs, et, dir, dst, true, &b)
						fmt.Fprintln(&sb, b.Sorted, testgraph.BatchPieces(&b, true))
					case 1:
						for _, v := range vs {
							for _, seg := range g.Neighbors(nil, v, et, dir, dst, true) {
								fmt.Fprintln(&sb, seg.VIDs, seg.PropI64[0], seg.PropStr[1])
							}
						}
					case 2:
						for _, v := range vs {
							fmt.Fprint(&sb, g.Degree(v, et, dir, dst), " ")
						}
					}
				}
			}
		}
		return sb.String()
	}
	const readers = 8
	got := make([]string, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = read(g, w)
		}(w)
	}
	close(start)
	wg.Wait()
	if !g.CSRSealed() || storage.FamiliesHoldingLog(g) != 0 {
		t.Fatal("the first reads must seal the graph and drop its edge logs")
	}
	if e := g.StatsEpoch(); e != 1 {
		t.Fatalf("statistics epoch %d after the first reads: the graph sealed more than once", e)
	}
	var want [3]string
	for first := range want {
		want[first] = read(twin, first)
	}
	for w := range got {
		if got[w] != want[w%3] {
			t.Fatalf("reader %d diverges from the explicitly sealed twin", w)
		}
	}
}

// TestBulkDeleteSealsFirst: a delete on a graph still in the bulk phase seals
// it, then removes the occurrence inserted first — in both directions, as a
// tombstone in the sealed images' deltas.
func TestBulkDeleteSealsFirst(t *testing.T) {
	cat := catalog.New()
	person := catalog.Must(cat.AddLabel("Person"))
	knows := catalog.Must(cat.AddEdgeType("KNOWS", catalog.PropDef{Name: "since", Kind: vector.KindDate}))
	g := storage.NewGraph(cat)
	var p [3]vector.VID
	for i := range p {
		v, err := g.AddVertex(person, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		p[i] = v
	}
	for _, e := range []struct {
		dst   vector.VID
		since int64
	}{{p[1], 3}, {p[2], 1}, {p[1], 1}, {p[1], 2}} {
		if err := g.AddEdge(knows, p[0], e.dst, vector.Date(e.since)); err != nil {
			t.Fatal(err)
		}
	}
	if !g.DeleteEdge(knows, p[0], p[1]) {
		t.Fatal("bulk-phase DeleteEdge found no edge")
	}
	if !g.CSRSealed() {
		t.Fatal("a bulk-phase delete must seal the graph first")
	}
	if ov := g.Overlay(); ov.Tombstones != 2 || ov.Inserts != 0 {
		t.Fatalf("overlay %+v, want one tombstone per direction", ov)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	for _, c := range []struct {
		src  vector.VID
		dir  catalog.Direction
		want string
	}{
		{p[0], catalog.Out, fmt.Sprint([]vector.VID{p[1], p[1], p[2]}, []int64{1, 2, 1})},
		{p[1], catalog.In, fmt.Sprint([]vector.VID{p[0], p[0]}, []int64{1, 2})},
	} {
		var vids []vector.VID
		var since []int64
		for _, seg := range g.Neighbors(nil, c.src, knows, c.dir, person, true) {
			vids = append(vids, seg.VIDs...)
			since = append(since, seg.PropI64[0]...)
		}
		if got := fmt.Sprint(vids, since); got != c.want {
			t.Fatalf("%v of %d after the delete: %s, want %s", c.dir, c.src, got, c.want)
		}
	}
}
