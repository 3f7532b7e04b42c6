package storage

import (
	"bytes"
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
// edge set, with edge props f(src,dst).
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
	g.SealCSR()
	return g, ps, cs, city, livesIn
}

// edgeProp derives the single LIVES_IN date prop deterministically from the
// endpoints.
func edgeProp(src, dst vector.VID) vector.Value {
	return vector.Date(int64(src)*100000 + int64(dst))
}

// readImage captures everything a reader can observe for the given sources —
// batched runs with props (and whether they are Sorted), scalar segments, and
// view degrees — as one comparable value.
type readImage struct {
	Sorted  bool
	Runs    [][]vector.VID
	Props   [][]int64
	Scalar  [][]vector.VID
	Degrees []int
}

func captureImage(g *Graph, srcs []vector.VID, et catalog.EdgeTypeID, dstLabel catalog.LabelID) readImage {
	return captureImageDir(g, srcs, et, catalog.Out, dstLabel)
}

func captureImageDir(g View, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) readImage {
	var img readImage
	var b Batch
	g.NeighborsBatch(srcs, et, dir, dstLabel, true, &b)
	img.Sorted = b.Sorted
	for i, r := range b.Runs {
		img.Runs = append(img.Runs, append([]vector.VID(nil), b.Run(i)...))
		var props []int64
		for _, p := range b.Pieces[r.Start:r.End] {
			if cols, off := b.PieceCols(p); len(cols.I64) > 0 && cols.I64[0] != nil {
				props = append(props, cols.I64[0][off:off+p.Len()]...)
			}
		}
		img.Props = append(img.Props, props)
	}
	for _, src := range srcs {
		img.Scalar = append(img.Scalar, append([]vector.VID(nil),
			flattenSegs(g.Neighbors(nil, src, et, dir, dstLabel, false))...))
		img.Degrees = append(img.Degrees, g.Degree(src, et, dir, dstLabel))
	}
	return img
}

// mutate commits one random edge at version ver. Pairs repeat often, so
// runs hold duplicates of a destination.
func mutate(t *testing.T, g *Graph, rng *rand.Rand, ver uint64, ps, cs []vector.VID, livesIn catalog.EdgeTypeID) {
	t.Helper()
	src := ps[rng.Intn(len(ps))]
	dst := cs[rng.Intn(len(cs))]
	if err := g.CommitEdge(ver, livesIn, src, dst, edgeProp(src, dst)); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayConcurrentReadersMatchReseal is the overlay's core concurrency
// contract, meant for -race: reader worker counts 1/2/4/8 expand batches
// while a writer streams commits through the overlay, with the reseal
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
				mutate(t, g, rng, uint64(1+i), ps, cs, livesIn)
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
// the image swap genuinely overlaps reader loads and commits.
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
		mutate(t, g, rng, uint64(1+i), ps, cs, livesIn)
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
	g.SealCSR()
	if after := captureImage(g, ps, livesIn, city); !reflect.DeepEqual(before, after) {
		t.Fatal("background-resealed overlay diverges from the quiesced reseal")
	}
}

// TestOverlayMatchesRebuiltGraph is the overlay's differential, and the only
// thing that vouches for a reseal now that a reseal is the readers' own
// merge: each commit script runs against a sealed graph (landing in the
// deltas, with and without mid-script reseals) while a sequential model
// tracks the edge list in insertion order; the read image — every family, props included — must be
// byte-identical to a graph rebuilt from the model's edge list and sealed,
// never to the reseal itself. The same holds after a forced reseal and after
// a Save/Load round trip taken while the deltas are live, and the bulk-phase
// read of the rebuilt graph is the same multiset.
func TestOverlayMatchesRebuiltGraph(t *testing.T) {
	// Vertices by index: persons 0..nPersons-1, one late person with no
	// bulk edge (a source beyond every image's offsets), then the cities.
	const nPersons, nCities = 24, 8
	const late, city0 = nPersons, nPersons + 1
	type edge struct {
		src, dst int
		prop     int64
	}
	type step struct {
		op byte // '+' commit e, 'R' quiesced reseal
		e  edge
	}
	// build adds the persons, the cities, then one vertex per extra label (the
	// versioned scripts' created vertices, here as base vertices with the
	// same VIDs), then the edges.
	build := func(t *testing.T, edges []edge, extra ...catalog.LabelID) (*Graph, []vector.VID, catalog.LabelID, catalog.LabelID, catalog.EdgeTypeID) {
		t.Helper()
		g, person, city, livesIn := twoLabelGraph(t)
		var vs []vector.VID
		for i := 0; i <= nPersons; i++ {
			v, err := g.AddVertex(person, int64(1000+i), vector.String_("p"), vector.Int64(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		for i := 0; i < nCities; i++ {
			v, err := g.AddVertex(city, int64(9000+i), vector.String_("c"))
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		for i, l := range extra {
			v, err := g.AddVertex(l, int64(5000+i))
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		for _, e := range edges {
			if err := g.AddEdge(livesIn, vs[e.src], vs[e.dst], vector.Date(e.prop)); err != nil {
				t.Fatal(err)
			}
		}
		return g, vs, person, city, livesIn
	}
	var initial []edge
	for pi := 0; pi < nPersons; pi++ {
		for ci := 0; ci < nCities; ci++ {
			if (pi*7+ci*3)%2 == 0 {
				initial = append(initial, edge{pi, city0 + ci, int64(pi*100 + ci)})
			}
		}
	}
	// capture reads every family the scripts can touch through its
	// single-family batch path, both directions.
	capture := func(g *Graph, vs []vector.VID, person, city catalog.LabelID, et catalog.EdgeTypeID) []readImage {
		ps, cs := vs[:city0], vs[city0:]
		return []readImage{
			captureImageDir(g, ps, et, catalog.Out, city),
			captureImageDir(g, cs, et, catalog.In, person),
			captureImageDir(g, cs, et, catalog.Out, city),
			captureImageDir(g, cs, et, catalog.In, city),
		}
	}
	random := func(seed int64, n int) []step {
		rng := rand.New(rand.NewSource(seed))
		out := make([]step, n)
		for i := range out {
			// Three prop values: duplicates of a pair usually differ.
			out[i] = step{'+', edge{rng.Intn(nPersons + 1), city0 + rng.Intn(nCities), int64(rng.Intn(3))}}
		}
		return out
	}
	// pairProps lists, per (src, dst) pair of vs indexes, the props of its
	// edges in the order g's images hold them.
	pairProps := func(g *Graph, vs []vector.VID, et catalog.EdgeTypeID) map[[2]int][]int64 {
		at := map[vector.VID]int{}
		for i, v := range vs {
			at[v] = i
		}
		out := map[[2]int][]int64{}
		for i, v := range vs {
			for _, seg := range g.Neighbors(nil, v, et, catalog.Out, AnyLabel, true) {
				for k, d := range seg.VIDs {
					key := [2]int{i, at[d]}
					out[key] = append(out[key], seg.PropI64[0][k])
				}
			}
		}
		return out
	}
	p0c0 := edge{0, city0, 7}
	scripts := []struct {
		name     string
		bulk     []edge // loaded after initial, before the seal
		steps    []step
		resealAt int // delta depth that triggers an inline reseal; 0 = never
	}{
		{"duplicate-inserts", nil, []step{{'+', p0c0}, {'+', p0c0}}, 0},
		// Duplicates of one pair carrying distinct props, on both sides of
		// reseals: image and delta keep them in insertion order.
		{"distinct-prop-duplicates", nil, []step{
			{'+', edge{0, city0, 111}}, {'+', edge{0, city0, 222}}, {op: 'R'},
			{'+', edge{0, city0, 333}}, {op: 'R'}, {'+', edge{0, city0, 444}},
		}, 0},
		// The same, with the duplicates loaded in the bulk phase between other
		// edges of their source and destination: the seal must keep them in
		// arrival order, ahead of the ones committed later.
		{"bulk-distinct-prop-duplicates", []edge{
			{0, city0, 111}, {0, city0 + 1, 5}, {0, city0, 222}, {1, city0, 9}, {0, city0, 333},
		}, []step{
			{'+', edge{0, city0, 444}}, {op: 'R'}, {'+', edge{0, city0, 555}},
		}, 0},
		// City→City: a family no bulk-phase edge ever touched.
		{"family-born-sealed", nil, []step{
			{'+', edge{city0, city0 + 2, 1}}, {'+', edge{city0, city0 + 1, 2}}, {'+', edge{city0 + 3, city0, 3}},
		}, 0},
		{"source-beyond-offsets", nil, []step{
			{'+', edge{late, city0 + 5, 1}}, {'+', edge{late, city0 + 2, 2}}, {op: 'R'},
			{'+', edge{late, city0 + 3, 3}},
		}, 0},
		{"random-deltas-kept", nil, random(1, 600), 0},
		{"random-with-reseals", nil, random(2, 600), 8},
	}
	for _, sc := range scripts {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			model := append(append([]edge(nil), initial...), sc.bulk...)
			g, vs, person, city, livesIn := build(t, model)
			g.SealCSR()
			arrival := map[[2]int][]int64{}
			for _, e := range model {
				arrival[[2]int{e.src, e.dst}] = append(arrival[[2]int{e.src, e.dst}], e.prop)
			}
			if !reflect.DeepEqual(pairProps(g, vs, livesIn), arrival) {
				t.Fatal("the bulk seal does not keep duplicate edges in arrival order")
			}
			if sc.resealAt > 0 {
				g.SetResealPolicy(1e-9, sc.resealAt)
			} else {
				g.SetResealPolicy(1e9, 1<<30)
			}
			for i, st := range sc.steps {
				switch st.op {
				case '+':
					if err := g.CommitEdge(uint64(1+i), livesIn, vs[st.e.src], vs[st.e.dst], vector.Date(st.e.prop)); err != nil {
						t.Fatal(err)
					}
					model = append(model, st.e)
				case 'R':
					g.SealCSR()
				}
			}
			if sc.resealAt > 0 && g.Overlay().Reseals == 0 {
				t.Fatal("policy should have forced mid-script reseals")
			}
			if !g.CSRSealed() {
				t.Fatal("the sealed phase has no unsealed family, however it was created")
			}
			if g.NumEdges() != len(model) {
				t.Fatalf("NumEdges = %d, model holds %d", g.NumEdges(), len(model))
			}

			rebuilt, rvs, rperson, rcity, rlives := build(t, model)
			want := capture(rebuilt, rvs, rperson, rcity, rlives) // the first read seals
			if !rebuilt.CSRSealed() {
				t.Fatal("the first read must seal the rebuilt graph")
			}
			for _, img := range want {
				if !img.Sorted {
					t.Fatal("a sealed single-family batch must be Sorted")
				}
			}
			if got := capture(g, vs, person, city, livesIn); !reflect.DeepEqual(got, want) {
				t.Fatal("overlay read image diverges from the graph rebuilt and sealed from the same edge list")
			}

			// Save with the deltas live, load, seal.
			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := Load(&buf) // label-grouped vertex order: same VIDs, same IDs
			if err != nil {
				t.Fatal(err)
			}
			loaded.SealCSR()
			if got := capture(loaded, vs, person, city, livesIn); !reflect.DeepEqual(got, want) {
				t.Fatal("Save/Load of the sealed graph with a live delta diverges from the rebuilt graph")
			}

			g.SealCSR()
			if ov := g.Overlay(); ov.Inserts != 0 {
				t.Fatalf("a reseal leaves empty deltas, got %+v", ov)
			}
			if got := capture(g, vs, person, city, livesIn); !reflect.DeepEqual(got, want) {
				t.Fatal("resealed read image diverges from the graph rebuilt and sealed from the same edge list")
			}
		})
	}

	// Versioned scripts — storage's side of transaction commits: inserts
	// stamped with ascending versions, vertices created past the base (the
	// labels a commit registers), pins, and reseals at the fold horizon (the
	// oldest pin, as a transaction manager bound to the graph reports it) in
	// the middle of the script, so folds happen under pinned reads. After
	// every step, the read at every still-pinned version and at the newest
	// must be byte-identical — batched and scalar, one family or several
	// (AnyLabel, Both, mixed source labels), Sorted included — to the graph rebuilt from the
	// model's edges stamped at or below that version. An 'N' step reseals at a
	// horizon nothing unfolded sits at or below: every image must stay.
	type vedge struct {
		edge
		ver uint64
	}
	type vstep struct {
		// '+' commit e at the next version, 'C' create a vertex at the next
		// version (a person when e.src is 0, else a city), 'P' pin
		// the newest version, 'U' drop the oldest pin, 'R' reseal at the
		// horizon, 'N' reseal at horizon 0.
		op byte
		e  edge
	}
	const created0 = city0 + nCities
	vrandom := func(seed int64, n int) []vstep {
		rng := rand.New(rand.NewSource(seed))
		var out []vstep
		var cps, ccs []int // created persons and cities, by index
		for len(out) < n {
			srcs := append([]int{late, rng.Intn(nPersons)}, cps...)
			dsts := append([]int{city0 + rng.Intn(nCities)}, ccs...)
			e := edge{srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))], int64(rng.Intn(3))}
			switch r := rng.Intn(100); {
			case r < 65:
				out = append(out, vstep{'+', e})
			case r < 73:
				at := created0 + len(cps) + len(ccs)
				if rng.Intn(2) == 0 {
					cps = append(cps, at)
					out = append(out, vstep{op: 'C'})
				} else {
					ccs = append(ccs, at)
					out = append(out, vstep{'C', edge{src: 1}})
				}
			case r < 83:
				out = append(out, vstep{op: 'P'})
			case r < 91:
				out = append(out, vstep{op: 'U'})
			default:
				out = append(out, vstep{op: 'R'})
			}
		}
		return out
	}
	cp, cc := created0, created0+1 // the hand script creates a person, then a city
	vscripts := []struct {
		name     string
		steps    []vstep
		resealAt int // delta depth that triggers an inline reseal; 0 = never
	}{
		{"versioned-created-endpoints", []vstep{
			{op: 'C'}, {'C', edge{src: 1}},
			{'+', edge{cp, city0, 1}}, {op: 'P'},
			{'+', edge{0, cc, 2}}, {'+', edge{cp, cc, 3}}, {op: 'P'},
			{op: 'N'}, // three commits unfolded, none at or below 0
			{op: 'R'}, // folds the first commit only: the oldest pin
			{'+', edge{cp, cc, 4}},
			{op: 'U'}, {op: 'R'}, {op: 'U'}, {op: 'R'},
			{'+', edge{cp, city0 + 2, 5}},
		}, 0},
		{"versioned-random", vrandom(3, 300), 0},
		{"versioned-random-with-reseals", vrandom(4, 300), 6},
	}
	for _, sc := range vscripts {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g, vs, person, city, livesIn := build(t, initial)
			g.SealCSR()
			horizon := &fakeVersions{}
			if g.BindVersions(horizon) != horizon {
				t.Fatal("a fresh graph binds the first version source")
			}
			if sc.resealAt > 0 {
				g.SetResealPolicy(1e-9, sc.resealAt)
			} else {
				g.SetResealPolicy(1e9, 1<<30)
			}
			model := make([]vedge, 0, len(initial))
			for _, e := range initial {
				model = append(model, vedge{e, 0})
			}
			var created []catalog.LabelID
			var pins []uint64
			cur := uint64(0)
			setHorizon := func() {
				horizon.h, horizon.v = cur, cur
				if len(pins) > 0 {
					horizon.h = pins[0]
				}
			}
			read := func(v View, vs []vector.VID, person, city catalog.LabelID, et catalog.EdgeTypeID) []readImage {
				var ps, cs []vector.VID
				for i, v := range vs {
					if i < city0 || (i >= created0 && created[i-created0] == person) {
						ps = append(ps, v)
					} else {
						cs = append(cs, v)
					}
				}
				return []readImage{
					captureImageDir(v, ps, et, catalog.Out, city),
					captureImageDir(v, cs, et, catalog.In, person),
					captureImageDir(v, ps, et, catalog.Out, AnyLabel),
					captureImageDir(v, cs, et, catalog.Both, AnyLabel),
					captureImageDir(v, append(ps, cs...), et, catalog.Both, person),
				}
			}
			check := func(ver uint64) {
				t.Helper()
				var upTo []edge
				for _, e := range model {
					if e.ver <= ver {
						upTo = append(upTo, e.edge)
					}
				}
				rebuilt, rvs, rperson, rcity, rlives := build(t, upTo, created...)
				rebuilt.SealCSR()
				want := read(rebuilt, rvs, rperson, rcity, rlives)
				for _, img := range want[:2] {
					if !img.Sorted {
						t.Fatal("a sealed single-family batch must be Sorted")
					}
				}
				if got := read(g.At(ver), vs, person, city, livesIn); !reflect.DeepEqual(got, want) {
					t.Fatalf("read at v%d (newest v%d, pins %v) diverges from the graph rebuilt from the edges at or below it", ver, cur, pins)
				}
			}
			for si, st := range sc.steps {
				switch st.op {
				case '+':
					cur++
					setHorizon()
					if err := g.CommitEdge(cur, livesIn, vs[st.e.src], vs[st.e.dst], vector.Date(st.e.prop)); err != nil {
						t.Fatal(err)
					}
					model = append(model, vedge{st.e, cur})
				case 'C':
					l := person
					if st.e.src != 0 {
						l = city
					}
					cur++
					setHorizon()
					v := vector.VID(created0 + len(created))
					if err := g.CommitVertex(cur, v, l, int64(5000+len(created))); err != nil {
						t.Fatal(err)
					}
					vs = append(vs, v)
					created = append(created, l)
				case 'P':
					pins = append(pins, cur)
				case 'U':
					if len(pins) > 0 {
						pins = pins[1:]
					}
					setHorizon()
				case 'R':
					setHorizon()
					g.SealCSR()
				case 'N':
					before := map[AdjKey]*csr{}
					for k, l := range g.fams.Load().adj {
						before[k] = l.snap.Load()
					}
					horizon.h = 0
					g.SealCSR()
					setHorizon()
					for k, l := range g.fams.Load().adj {
						if before[k] != l.snap.Load() {
							t.Fatalf("step %d: a reseal with nothing at or below its horizon replaced family %v's image", si, k)
						}
					}
				}
				for _, p := range pins {
					check(p)
				}
				check(cur)
			}
			if sc.resealAt > 0 && g.Overlay().Reseals == 0 {
				t.Fatal("policy should have forced mid-script reseals")
			}
			// Created vertices are rows like the base's: the graph saves, and
			// the graph it loads as saves the same bytes.
			var buf, again bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatalf("Save with %d created vertices: %v", len(created), err)
			}
			loaded, _, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("Save→Load→Save with %d created vertices does not round-trip (%v)", len(created), err)
			}
			pins = nil
			setHorizon()
			g.SealCSR()
			if ov := g.Overlay(); ov.Inserts != 0 {
				t.Fatalf("a reseal at the newest version leaves empty deltas, got %+v", ov)
			}
			check(cur)
			check(Latest)
		})
	}
}

// fakeVersions is a settable published version and fold horizon, standing in
// for the transaction manager a graph binds.
type fakeVersions struct{ v, h uint64 }

func (f *fakeVersions) Version() uint64   { return f.v }
func (f *fakeVersions) GCHorizon() uint64 { return f.h }

// TestOverlayMixedDirections exercises the In direction and Both through the
// overlay, cross-checked against the scalar reference path.
func TestOverlayMixedDirections(t *testing.T) {
	g, ps, cs, city, livesIn := overlayGraph(t, 12, 6)
	person := g.LabelOf(ps[0])
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		mutate(t, g, rng, uint64(1+i), ps, cs, livesIn)
	}
	batchMatchesScalar(t, g, ps, livesIn, catalog.Out, city, true)
	batchMatchesScalar(t, g, cs, livesIn, catalog.In, person, true)
	batchMatchesScalar(t, g, ps, livesIn, catalog.Both, city, false)
	batchMatchesScalar(t, g, ps, livesIn, catalog.Out, AnyLabel, false)
	_ = city
}
