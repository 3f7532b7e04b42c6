package storage_test

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/vector"
)

// TestSealReleasesBuilder keeps the second adjacency copy from coming back:
// a generated dataset holds no builder slot array in any family and fits the
// one-copy size (10.4 MB at simSF 1; it was 24.0 MB with the slots kept), and
// neither does one after reseals forced on every mutation while readers and
// two writers run — whose final reads must equal the sequential model. Meant
// for -race.
func TestSealReleasesBuilder(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, h := ds.Graph, ds.H
	if n := storage.FamiliesHoldingSlots(g); n != 0 {
		t.Fatalf("%d families still hold builder slots after the seal", n)
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
	if n := storage.FamiliesHoldingSlots(g); n != 0 {
		t.Fatalf("%d families hold builder slots after reseals", n)
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
