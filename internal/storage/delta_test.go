package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// overlayGraph builds a sealed two-label graph sized for concurrency tests:
// nPersons persons, nCities cities, and a deterministic ~half-dense LIVES_IN
// edge set. Edge props are f(src,dst) so duplicate (src,dst) occurrences
// always carry identical tuples — the regime where overlay reads are
// byte-identical to a reseal (see the delta.go package doc).
func overlayGraph(t *testing.T, nPersons, nCities int) (*Graph, []vector.VID, []vector.VID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	g, person, city, livesIn := twoLabelGraph(t)
	var ps, cs []vector.VID
	for i := 0; i < nPersons; i++ {
		v, err := g.AddVertex(person, int64(1000+i), vector.String_("p"), vector.Int64(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, v)
	}
	for i := 0; i < nCities; i++ {
		v, err := g.AddVertex(city, int64(9000+i), vector.String_("c"))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, v)
	}
	for pi, p := range ps {
		for ci, c := range cs {
			if (pi*7+ci*3)%2 == 0 {
				if err := g.AddEdge(livesIn, p, c, edgeProp(p, c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.CompactAdjacency()
	g.SealCSR()
	return g, ps, cs, city, livesIn
}

// edgeProp derives the single LIVES_IN date prop deterministically from the
// endpoints, so re-adding an edge reproduces the prior tuple exactly.
func edgeProp(src, dst vector.VID) vector.Value {
	return vector.Date(int64(src)*100000 + int64(dst))
}

// readImage captures everything a reader can observe for the given sources —
// batched runs with props, scalar segments, and view degrees — as one
// comparable value.
type readImage struct {
	Runs    [][]vector.VID
	Props   [][]int64
	Scalar  [][]vector.VID
	Degrees []int
}

func captureImage(g *Graph, srcs []vector.VID, et catalog.EdgeTypeID, dstLabel catalog.LabelID) readImage {
	var img readImage
	var b Batch
	g.NeighborsBatch(srcs, et, catalog.Out, dstLabel, true, &b)
	for i := range b.Runs {
		r := b.Runs[i]
		img.Runs = append(img.Runs, append([]vector.VID(nil), b.Run(i)...))
		if len(b.PropI64) > 0 && b.PropI64[0] != nil {
			img.Props = append(img.Props, append([]int64(nil), b.PropI64[0][r.Start:r.End]...))
		}
	}
	for _, src := range srcs {
		img.Scalar = append(img.Scalar, append([]vector.VID(nil),
			flattenSegs(g.Neighbors(nil, src, et, catalog.Out, dstLabel, false))...))
		img.Degrees = append(img.Degrees, g.Degree(src, et, catalog.Out, dstLabel))
	}
	return img
}

func TestOverlayDeleteThenReadd(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 8, 4)
	src, dst := ps[0], cs[0] // (0*7+0*3)%2==0: edge exists
	if !g.DeleteEdge(livesIn, src, dst) {
		t.Fatal("DeleteEdge failed")
	}
	if err := g.AddEdge(livesIn, src, dst, edgeProp(src, dst)); err != nil {
		t.Fatal(err)
	}
	// One occurrence, present, with the original prop tuple.
	segs := g.Neighbors(nil, src, livesIn, catalog.Out, city, true)
	count := 0
	for _, s := range segs {
		for k, d := range s.VIDs {
			if d == dst {
				count++
				if got, want := s.PropI64[0][k], int64(src)*100000+int64(dst); got != want {
					t.Fatalf("re-added edge prop = %d, want %d", got, want)
				}
			}
		}
	}
	if count != 1 {
		t.Fatalf("delete-then-readd left %d occurrences, want 1", count)
	}
	// Byte-identical to the quiesced reseal.
	before := captureImage(g, ps, livesIn, city)
	g.CompactAdjacency()
	g.SealCSR()
	after := captureImage(g, ps, livesIn, city)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("overlay image diverges from resealed image after delete-then-readd")
	}
}

func TestOverlayDeleteRetractsInsert(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 8, 4)
	src, dst := ps[0], cs[1] // (0*7+1*3)%2==1: edge absent from the sealed image
	if err := g.AddEdge(livesIn, src, dst, edgeProp(src, dst)); err != nil {
		t.Fatal(err)
	}
	if !g.DeleteEdge(livesIn, src, dst) {
		t.Fatal("delete of a delta insert failed")
	}
	for _, d := range flattenSegs(g.Neighbors(nil, src, livesIn, catalog.Out, city, false)) {
		if d == dst {
			t.Fatal("retracted insert still visible")
		}
	}
	if g.DeleteEdge(livesIn, src, dst) {
		t.Fatal("second delete of the same edge must fail")
	}
	before := captureImage(g, ps, livesIn, city)
	g.CompactAdjacency()
	g.SealCSR()
	if after := captureImage(g, ps, livesIn, city); !reflect.DeepEqual(before, after) {
		t.Fatal("overlay image diverges from resealed image after insert retraction")
	}
}

// mutate applies one deterministic mutation step. Steps cycle through
// duplicate-tolerant adds, deletes (of sealed or delta entries alike), and
// explicit delete-then-readd pairs.
func mutate(g *Graph, rng *rand.Rand, ps, cs []vector.VID, livesIn catalog.EdgeTypeID) {
	src := ps[rng.Intn(len(ps))]
	dst := cs[rng.Intn(len(cs))]
	switch rng.Intn(4) {
	case 0, 1:
		_ = g.AddEdge(livesIn, src, dst, edgeProp(src, dst))
	case 2:
		g.DeleteEdge(livesIn, src, dst)
	default:
		if g.DeleteEdge(livesIn, src, dst) {
			_ = g.AddEdge(livesIn, src, dst, edgeProp(src, dst))
		}
	}
}

// TestOverlayConcurrentReadersMatchReseal is the overlay's core concurrency
// contract, meant for -race: reader worker counts 1/2/4/8 expand batches
// while a writer streams edge mutations through the overlay, with the reseal
// policy cranked low enough that images swap mid-run. Readers assert the
// sorted-run invariant on every expansion; after the writer quiesces, the
// overlay read image must be byte-identical to a full reseal.
func TestOverlayConcurrentReadersMatchReseal(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(t *testing.T) {
			g, ps, cs, city, livesIn := overlayGraph(t, 48, 12)
			// Reseal aggressively so readers race image swaps (inline: the
			// writer goroutine performs the swap while readers are loading).
			g.SetResealPolicy(0.01, 8)

			var done atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var b Batch
					for !done.Load() {
						g.NeighborsBatch(ps, livesIn, catalog.Out, city, true, &b)
						if len(b.Runs) != len(ps) {
							t.Errorf("reader saw %d runs for %d srcs", len(b.Runs), len(ps))
							return
						}
						if !b.Sorted {
							t.Error("reader saw an unsorted batch during overlay writes")
							return
						}
						for i := range b.Runs {
							run := b.Run(i)
							if !sort.SliceIsSorted(run, func(x, y int) bool { return run[x] < run[y] }) {
								t.Errorf("reader saw unsorted run for src %d: %v", ps[i], run)
								return
							}
						}
					}
				}()
			}

			rng := rand.New(rand.NewSource(int64(workers)))
			for i := 0; i < 4000; i++ {
				mutate(g, rng, ps, cs, livesIn)
			}
			done.Store(true)
			wg.Wait()
			if t.Failed() {
				return
			}
			if g.Overlay().Reseals == 0 {
				t.Fatal("policy should have forced mid-run reseals")
			}

			before := captureImage(g, ps, livesIn, city)
			g.CompactAdjacency()
			g.SealCSR()
			after := captureImage(g, ps, livesIn, city)
			if !reflect.DeepEqual(before, after) {
				t.Fatal("overlay reads diverge from the quiesced reseal")
			}
		})
	}
}

// TestOverlayBackgroundResealSwap drives reseals through an asynchronous
// submit (a private goroutine per task, tracked so the test can quiesce) so
// the image swap genuinely overlaps reader loads and writer mutations.
func TestOverlayBackgroundResealSwap(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 32, 8)
	var pending sync.WaitGroup
	g.SetResealSubmit(func(task func()) bool {
		pending.Add(1)
		go func() { defer pending.Done(); task() }()
		return true
	})
	g.SetResealPolicy(0.01, 8)

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Batch
			for !done.Load() {
				g.NeighborsBatch(ps, livesIn, catalog.Out, city, true, &b)
				if !b.Sorted {
					t.Error("unsorted batch during background reseal")
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		mutate(g, rng, ps, cs, livesIn)
	}
	done.Store(true)
	wg.Wait()
	pending.Wait() // quiesce in-flight reseals before comparing
	if t.Failed() {
		return
	}
	if g.Overlay().Reseals == 0 {
		t.Fatal("no background reseal ran")
	}

	before := captureImage(g, ps, livesIn, city)
	g.CompactAdjacency()
	g.SealCSR()
	if after := captureImage(g, ps, livesIn, city); !reflect.DeepEqual(before, after) {
		t.Fatal("background-resealed overlay diverges from the quiesced reseal")
	}
}

// TestCompactSealsPostSealFamilies covers the one way a family can lack an
// image in the sealed phase: a mutation creates its (src,et,dst,dir) key
// after SealCSR, so it starts on the live slot layout (unsorted, no delta).
// CompactAdjacency schedules the reseal path for it, so post-Compact reads
// are sealed and sorted.
func TestCompactSealsPostSealFamilies(t *testing.T) {
	g, _, cs, city, livesIn := overlayGraph(t, 16, 4)
	// City→City LIVES_IN edges: a family no bulk-phase edge ever touched.
	for _, c := range cs[1:] {
		if err := g.AddEdge(livesIn, cs[0], c, edgeProp(cs[0], c)); err != nil {
			t.Fatal(err)
		}
	}
	if g.CSRSealed() {
		t.Fatal("a family first created after the seal must start unsealed")
	}
	var b Batch
	g.NeighborsBatch(cs, livesIn, catalog.Out, city, false, &b)
	if b.Sorted || len(b.Run(0)) != len(cs)-1 {
		t.Fatalf("unsealed family: Sorted=%v run=%v", b.Sorted, b.Run(0))
	}
	g.CompactAdjacency()
	if !g.CSRSealed() {
		t.Fatal("CompactAdjacency must seal families created after the seal")
	}
	g.NeighborsBatch(cs, livesIn, catalog.Out, city, false, &b)
	if !b.Sorted {
		t.Fatal("post-Compact batch must be Sorted")
	}
	batchMatchesScalar(t, g, cs, livesIn, catalog.Out, city, true)
}

// TestOverlayMatchesRebuiltGraph is the overlay's differential: each
// mutation script runs against a sealed graph (landing in the deltas, with
// and without mid-script reseals) while a sequential model tracks the edge
// multiset; the overlay's read image must then be byte-identical to a graph
// rebuilt from the model's edge list and sealed, and equal as a multiset to
// the same graph left unsealed.
func TestOverlayMatchesRebuiltGraph(t *testing.T) {
	const nPersons, nCities = 24, 8
	type pair struct{ p, c int }
	type step struct {
		add  bool
		edge pair
	}
	random := func(seed int64, n int) []step {
		rng := rand.New(rand.NewSource(seed))
		out := make([]step, n)
		for i := range out {
			out[i] = step{add: rng.Intn(2) == 0, edge: pair{rng.Intn(nPersons), rng.Intn(nCities)}}
		}
		return out
	}
	scripts := []struct {
		name     string
		steps    []step
		resealAt int // delta depth that triggers an inline reseal; 0 = never
	}{
		{"delete-then-readd", []step{{false, pair{0, 0}}, {true, pair{0, 0}}}, 0},
		{"insert-then-retract", []step{{true, pair{0, 1}}, {false, pair{0, 1}}}, 0},
		{"duplicate-inserts", []step{{true, pair{0, 0}}, {true, pair{0, 0}}, {false, pair{0, 0}}}, 0},
		{"random-deltas-kept", random(1, 600), 0},
		{"random-with-reseals", random(2, 600), 8},
	}
	for _, sc := range scripts {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g, ps, cs, city, livesIn := overlayGraph(t, nPersons, nCities)
			if sc.resealAt > 0 {
				g.SetResealPolicy(1e-9, sc.resealAt)
			} else {
				g.SetResealPolicy(1e9, 1<<30)
			}
			// The model starts from overlayGraph's deterministic edge set.
			model := make(map[pair]int)
			for pi := range ps {
				for ci := range cs {
					if (pi*7+ci*3)%2 == 0 {
						model[pair{pi, ci}] = 1
					}
				}
			}
			for _, st := range sc.steps {
				src, dst := ps[st.edge.p], cs[st.edge.c]
				if st.add {
					if err := g.AddEdge(livesIn, src, dst, edgeProp(src, dst)); err != nil {
						t.Fatal(err)
					}
					model[st.edge]++
				} else if ok := g.DeleteEdge(livesIn, src, dst); ok != (model[st.edge] > 0) {
					t.Fatalf("DeleteEdge(%v) = %v with %d occurrences in the model", st.edge, ok, model[st.edge])
				} else if ok {
					model[st.edge]--
				}
			}
			if sc.resealAt > 0 && g.Overlay().Reseals == 0 {
				t.Fatal("policy should have forced mid-script reseals")
			}

			rebuilt, person, rcity, rlives := twoLabelGraph(t)
			var rps, rcs []vector.VID
			for i := range ps {
				v, _ := rebuilt.AddVertex(person, int64(1000+i), vector.String_("p"), vector.Int64(int64(i)))
				rps = append(rps, v)
			}
			for i := range cs {
				v, _ := rebuilt.AddVertex(rcity, int64(9000+i), vector.String_("c"))
				rcs = append(rcs, v)
			}
			for pi := range rps {
				for ci := range rcs {
					for k := 0; k < model[pair{pi, ci}]; k++ {
						if err := rebuilt.AddEdge(rlives, rps[pi], rcs[ci], edgeProp(rps[pi], rcs[ci])); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			unsealedImg := captureImage(rebuilt, rps, rlives, rcity)
			rebuilt.SealCSR()
			want := captureImage(rebuilt, rps, rlives, rcity)
			got := captureImage(g, ps, livesIn, city)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("overlay read image diverges from the graph rebuilt and sealed from the same edge list")
			}
			for i := range unsealedImg.Runs {
				run := append([]vector.VID(nil), unsealedImg.Runs[i]...)
				sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
				if !reflect.DeepEqual(run, append([]vector.VID(nil), want.Runs[i]...)) {
					t.Fatalf("unsealed run %d is not the sealed run's multiset: %v vs %v", i, run, want.Runs[i])
				}
			}
		})
	}
}

// TestOverlayMixedDirections exercises the In direction and Both through the
// overlay, cross-checked against the scalar reference path.
func TestOverlayMixedDirections(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 12, 6)
	person := g.LabelOf(ps[0])
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		mutate(g, rng, ps, cs, livesIn)
	}
	batchMatchesScalar(t, g, ps, livesIn, catalog.Out, city, true)
	batchMatchesScalar(t, g, cs, livesIn, catalog.In, person, true)
	batchMatchesScalar(t, g, ps, livesIn, catalog.Both, city, false)
	batchMatchesScalar(t, g, ps, livesIn, catalog.Out, AnyLabel, false)
	_ = city
}
