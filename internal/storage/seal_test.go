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
// commit while readers and two writers run — whose final reads must equal
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

	// Every commit reseals both KNOWS families, inline on the writer.
	g.SetResealSubmit(nil)
	g.SetResealPolicy(1e-9, 1)
	srcs := ds.Persons[:48]
	var b storage.Batch
	g.NeighborsBatch(srcs, h.Knows, catalog.Out, h.Person, false, &b)
	const rounds = 3
	model := make([][]vector.VID, len(srcs))
	adds := make([][]vector.VID, len(srcs))
	for i, p := range srcs {
		run := append([]vector.VID(nil), b.Run(i)...)
		// One absent pair per round; sources alternate between the two
		// writers.
		for _, q := range ds.Persons[len(srcs):] {
			if k := sort.Search(len(run), func(k int) bool { return run[k] >= q }); q != p && (k == len(run) || run[k] != q) {
				if adds[i] = append(adds[i], q); len(adds[i]) == rounds {
					break
				}
			}
		}
		if len(adds[i]) < rounds {
			t.Fatalf("fewer than %d absent KNOWS pairs for person %d", rounds, p)
		}
		run = append(run, adds[i]...)
		sort.Slice(run, func(x, y int) bool { return run[x] < run[y] })
		model[i] = run
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
			for round := 0; round < rounds; round++ {
				for i := w; i < len(srcs); i += 2 {
					if err := g.CommitEdge(uint64(1+round), h.Knows, srcs[i], adds[i][round], vector.Date(int64(ldbc.DayStart))); err != nil {
						t.Error(err)
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
// still in the bulk phase, each starting with a different entry point (a
// whole-request NeighborsBatch, one-source reads, Save). The graph seals
// exactly once — one statistics epoch — and every read equals the same read
// on a twin sealed explicitly. Meant for -race.
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
			if (first+k)%3 == 2 {
				if err := g.Save(&sb); err != nil {
					t.Error(err)
				}
				continue
			}
			for _, dst := range append(labels, storage.AnyLabel) {
				for _, dir := range []catalog.Direction{catalog.Out, catalog.In, catalog.Both} {
					if (first+k)%3 == 0 {
						g.NeighborsBatch(vs, et, dir, dst, true, &b)
						fmt.Fprintln(&sb, b.Sorted, testgraph.Pieces(g, &b, vs, et, true))
						continue
					}
					for _, v := range vs {
						fmt.Fprintln(&sb, testgraph.Edges(g, v, et, dir, dst))
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
