package txn

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// assertBatchMatchesScalar checks the NeighborsBatch contract on a view
// against the per-source scalar reference (testgraph.CheckBatch): the same
// pieces with their labels and edge-property rows, Sorted exactly when the
// reference says so (a multi-family run voids it), and a piece aliasing the
// image exactly where the scalar read of its run does. It returns the batch.
func assertBatchMatchesScalar(t testing.TB, v storage.View, srcs []vector.VID,
	et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) *storage.Batch {
	t.Helper()
	return testgraph.CheckBatch(t, v, srcs, et, dir, dstLabel, withProps)
}

// viewsImage reports whether every piece of b aliases b.VIDs, the image of
// the one family a single-family request met.
func viewsImage(b *storage.Batch) bool {
	for _, p := range b.Pieces {
		if &b.PieceVIDs(p)[0] != &b.VIDs[p.Lo] {
			return false
		}
	}
	return b.VIDs != nil
}

// overlayFixture is the sealed test graph under a manager that has committed
// one write of every shape the read path distinguishes, each in its own
// version:
//
//	v1  p0 KNOWS p9 (both directions)          delta runs on two base sources
//	v2  new post np by p1                       a created source; p1 gains (HAS_CREATOR, In, Post)
//	v3  new comment nc by p1, reply to np       p1 gains a second family of the same edge type
//	v4  p2 LIKES m0, p3 LIKES np                a committed edge onto a created vertex
//	v5  p0 KNOWS p8 (both directions)           a second entry in v1's runs
type overlayFixture struct {
	f      *testgraph.Fixture
	m      *Manager
	np, nc vector.VID
}

func newOverlayFixture(t testing.TB) *overlayFixture {
	t.Helper()
	f := testgraph.New()
	f.Graph.SealCSR()
	o := &overlayFixture{f: f, m: NewManager(f.Graph)}
	s, p := f.Schema, f.Persons
	commit := func(ws []vector.VID, body func(tx *Txn) error) {
		t.Helper()
		tx := o.m.Begin(ws)
		if err := body(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	knows := func(a, b vector.VID, d int64) func(tx *Txn) error {
		return func(tx *Txn) error {
			if err := tx.AddEdge(s.Knows, a, b, vector.Date(d)); err != nil {
				return err
			}
			return tx.AddEdge(s.Knows, b, a, vector.Date(d))
		}
	}
	commit([]vector.VID{p[0], p[9]}, knows(p[0], p[9], 20001))
	commit([]vector.VID{p[1]}, func(tx *Txn) (err error) {
		if o.np, err = tx.AddVertex(s.Post, 900, vector.String_("new post"), vector.Int64(8), vector.Date(20002)); err != nil {
			return err
		}
		return tx.AddEdge(s.HasCreator, o.np, p[1])
	})
	commit([]vector.VID{p[1], o.np}, func(tx *Txn) (err error) {
		if o.nc, err = tx.AddVertex(s.Comment, 901, vector.String_("new comment"), vector.Int64(11), vector.Date(20003)); err != nil {
			return err
		}
		if err = tx.AddEdge(s.HasCreator, o.nc, p[1]); err != nil {
			return err
		}
		return tx.AddEdge(s.ReplyOf, o.nc, o.np)
	})
	commit([]vector.VID{p[2], p[3], f.Posts[0], o.np}, func(tx *Txn) error {
		if err := tx.AddEdge(s.Likes, p[2], f.Posts[0], vector.Date(20004)); err != nil {
			return err
		}
		return tx.AddEdge(s.Likes, p[3], o.np, vector.Date(20004))
	})
	commit([]vector.VID{p[0], p[8]}, knows(p[0], p[8], 20005))
	return o
}

// sources returns the request shapes of the matrix: uniform and mixed source
// labels, each with NilVID holes, touched and untouched base vertices, and
// the two transaction-created vertices.
func (o *overlayFixture) sources() map[string][]vector.VID {
	f := o.f
	nilv := vector.NilVID
	persons := append([]vector.VID{nilv}, f.Persons...)
	msgs := []vector.VID{f.Posts[0], f.Comments[0], o.np, nilv, f.Posts[1], o.nc, f.Comments[1], f.Posts[2]}
	return map[string][]vector.VID{
		"persons":        append(persons, nilv),
		"untouched":      {f.Persons[4], f.Persons[5], nilv, f.Persons[6], f.Persons[7]},
		"one-touched":    {f.Persons[1]},
		"messages-mixed": msgs,
		"everything":     append(append([]vector.VID{o.nc}, persons...), msgs...),
		"created-only":   {o.np, o.nc},
	}
}

// TestSnapshotNeighborsBatchMatrix runs {concrete, AnyLabel} × {Out, In,
// Both} × {uniform, mixed source labels} × {no props, props} × {no overlay,
// overlay on some sources, txn-created sources, NilVID holes} at every
// committed version: a snapshot must never see an overlay entry newer than
// itself, and must read exactly what the scalar path reads.
func TestSnapshotNeighborsBatchMatrix(t *testing.T) {
	o := newOverlayFixture(t)
	s := o.f.Schema
	ets := []catalog.EdgeTypeID{s.Knows, s.HasCreator, s.Likes, s.ReplyOf}
	dsts := []catalog.LabelID{s.Person, s.Post, s.Comment, storage.AnyLabel}
	for ver := uint64(0); ver <= o.m.Version(); ver++ {
		snap := o.m.Graph().At(ver)
		for name, srcs := range o.sources() {
			t.Run(fmt.Sprintf("v%d/%s", ver, name), func(t *testing.T) {
				for _, et := range ets {
					for _, dst := range dsts {
						for _, dir := range []catalog.Direction{catalog.Out, catalog.In, catalog.Both} {
							assertBatchMatchesScalar(t, snap, srcs, et, dir, dst, false)
							assertBatchMatchesScalar(t, snap, srcs, et, dir, dst, true)
						}
					}
				}
			})
		}
	}

	// Version visibility, spelled out on one source: p0's KNOWS run is the
	// sealed run merged with exactly the entries committed at or below the
	// snapshot — Sorted always, a view of the image only while none is
	// visible.
	p := o.f.Persons
	var sealed []vector.VID
	for _, seg := range o.m.Graph().At(0).Neighbors(nil, p[0], s.Knows, catalog.Out, s.Person, false) {
		sealed = append(sealed, seg.VIDs...)
	}
	for ver, added := range map[uint64][]vector.VID{0: nil, 1: {p[9]}, 4: {p[9]}, 5: {p[9], p[8]}} {
		var b storage.Batch
		o.m.Graph().At(ver).NeighborsBatch([]vector.VID{p[0]}, s.Knows, catalog.Out, s.Person, false, &b)
		want := append(append([]vector.VID{}, sealed...), added...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := append([]vector.VID{}, b.Run(0)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot v%d: p0 neighbors %v, want %v", ver, got, want)
		}
		if !b.Sorted || viewsImage(&b) == (len(added) > 0) {
			t.Fatalf("snapshot v%d: Sorted=%v view=%v with %d committed entries visible", ver, b.Sorted, viewsImage(&b), len(added))
		}
	}
}

// TestSnapshotBatchViewsUntouchedRuns is the regression guard for the
// per-run decision: committed overlays that touch none of a request's
// sources — or touch them only in other families — leave every run a view
// of the sealed image, and a touched source makes its own run, and only
// that one, owned merged rows.
func TestSnapshotBatchViewsUntouchedRuns(t *testing.T) {
	o := newOverlayFixture(t)
	s, p := o.f.Schema, o.f.Persons
	snap := o.m.Snapshot()
	for name, srcs := range map[string][]vector.VID{
		"no overlay at all":      o.sources()["untouched"],
		"overlay, other family":  {p[1], p[2], p[3]}, // HAS_CREATOR-In and LIKES lists only
		"created, other family":  {o.np, p[4]},       // a created post has no KNOWS list
		"untouched with NilVIDs": {vector.NilVID, p[5], vector.NilVID},
	} {
		b := assertBatchMatchesScalar(t, snap, srcs, s.Knows, catalog.Out, s.Person, true)
		if !viewsImage(b) || !b.Sorted {
			t.Fatalf("%s: view=%v Sorted=%v, want image views", name, viewsImage(b), b.Sorted)
		}
	}
	// One touched source in the request merges its own run alone — and the
	// batch stays Sorted.
	b := assertBatchMatchesScalar(t, snap, []vector.VID{p[4], p[0]}, s.Knows, catalog.Out, s.Person, false)
	untouched, touched := b.Pieces[b.Runs[0].Start], b.Pieces[b.Runs[1].Start]
	if !b.Sorted || &b.PieceVIDs(untouched)[0] != &b.VIDs[untouched.Lo] || &b.PieceVIDs(touched)[0] == &b.VIDs[touched.Lo] {
		t.Fatalf("merged batch: Sorted=%v pieces %+v", b.Sorted, b.Pieces)
	}
}

// TestSnapshotPiecesAcrossFamilies: under AnyLabel and Both a run holds one
// piece per non-empty family run, labelled with that family's destination,
// and a run is merged only in the family a commit touched. p1's
// HAS_CREATOR-In run at the latest snapshot spans the untouched Post and
// Comment images and the created post and comment merged into each.
func TestSnapshotPiecesAcrossFamilies(t *testing.T) {
	o := newOverlayFixture(t)
	s, p := o.f.Schema, o.f.Persons
	for ver := uint64(0); ver <= o.m.Version(); ver++ {
		snap := o.m.Graph().At(ver)
		for _, dir := range []catalog.Direction{catalog.In, catalog.Both} {
			b := assertBatchMatchesScalar(t, snap, p, s.HasCreator, dir, storage.AnyLabel, false)
			for _, pc := range b.Pieces {
				if l := snap.LabelOf(b.PieceVIDs(pc)[0]); l != pc.Label {
					t.Fatalf("v%d dir=%v: piece labelled %d holds a vertex of label %d", ver, dir, pc.Label, l)
				}
			}
		}
		b := assertBatchMatchesScalar(t, snap, p[1:2], s.HasCreator, catalog.In, storage.AnyLabel, false)
		var labels []catalog.LabelID
		for _, pc := range b.Pieces {
			labels = append(labels, pc.Label)
		}
		if want := []catalog.LabelID{s.Post, s.Comment}; !reflect.DeepEqual(labels, want) {
			t.Fatalf("v%d: p1's pieces carry labels %v, want %v", ver, labels, want)
		}
	}
}

// TestOverlayFamilyOrderDeterministic: a vertex whose committed edges of one
// edge type land in two families (p1: a new post and a new comment on
// HAS_CREATOR/In) must return them in the graph's family order on every read,
// scalar and batched — each inside its family's sorted run.
func TestOverlayFamilyOrderDeterministic(t *testing.T) {
	o := newOverlayFixture(t)
	s, p1 := o.f.Schema, o.f.Persons[1]
	snap := o.m.Snapshot()
	// The graph reads every committed entry, as the latest snapshot does.
	var want []vector.VID
	for _, seg := range o.f.Graph.Neighbors(nil, p1, s.HasCreator, catalog.In, storage.AnyLabel, false) {
		if !sort.SliceIsSorted(seg.VIDs, func(i, j int) bool { return seg.VIDs[i] < seg.VIDs[j] }) {
			t.Fatalf("family run %v is not sorted", seg.VIDs)
		}
		want = append(want, seg.VIDs...)
	}
	for _, v := range []vector.VID{o.np, o.nc} {
		if !containsVID(want, v) {
			t.Fatalf("created vertex %d missing from %v", v, want)
		}
	}
	for i := 0; i < 100; i++ {
		var scalar []vector.VID
		for _, seg := range snap.Neighbors(nil, p1, s.HasCreator, catalog.In, storage.AnyLabel, false) {
			scalar = append(scalar, seg.VIDs...)
		}
		if !reflect.DeepEqual(scalar, want) {
			t.Fatalf("read %d: scalar order %v, want %v", i, scalar, want)
		}
		b := assertBatchMatchesScalar(t, snap, []vector.VID{p1}, s.HasCreator, catalog.In, storage.AnyLabel, false)
		if got := append([]vector.VID{}, b.Run(0)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d: batch order %v, want %v", i, got, want)
		}
	}
}

func containsVID(vs []vector.VID, v vector.VID) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// TestSnapshotBatchUnderCommits runs batched snapshot readers against a
// committer (run with -race): whatever the committer publishes meanwhile, a
// snapshot's batched read equals its own scalar read.
func TestSnapshotBatchUnderCommits(t *testing.T) {
	o := newOverlayFixture(t)
	s, p := o.f.Schema, o.f.Persons
	const readers, reads = 3, 150
	var readersWG, wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the committer runs for as long as any reader does
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, b := p[i%len(p)], p[(i*3+1)%len(p)]
			tx := o.m.Begin([]vector.VID{a, b})
			err := tx.AddEdge(s.Knows, a, b, vector.Date(int64(21000+i)))
			if err == nil && i%4 == 0 {
				var nv vector.VID
				if nv, err = tx.AddVertex(s.Post, int64(1000+i), vector.String_("p"), vector.Int64(1), vector.Date(int64(21000+i))); err == nil {
					err = tx.AddEdge(s.HasCreator, nv, a)
				}
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			srcs := append([]vector.VID{vector.NilVID, o.np}, p...)
			for i := 0; i < reads; i++ {
				snap := o.m.AcquireSnapshot() // pinned: no reseal folds past it mid-read
				dir := []catalog.Direction{catalog.Out, catalog.In, catalog.Both}[(i+r)%3]
				var b, ref storage.Batch
				for _, et := range []catalog.EdgeTypeID{s.Knows, s.HasCreator} {
					snap.NeighborsBatch(srcs, et, dir, storage.AnyLabel, true, &b)
					storage.AppendNeighborsBatch(snap, srcs, et, dir, storage.AnyLabel, true, &ref)
					for k := range srcs {
						if !reflect.DeepEqual(append([]vector.VID{}, b.Run(k)...), append([]vector.VID{}, ref.Run(k)...)) {
							t.Errorf("reader %d, snapshot v%d, src %d: batch %v, scalar %v", r, snap.Version(), srcs[k], b.Run(k), ref.Run(k))
							return
						}
					}
				}
				o.m.Release(snap)
			}
		}(r)
	}
	readersWG.Wait()
	close(stop)
	wg.Wait()
	// The quiesced end state is the sequential one.
	assertBatchMatchesScalar(t, o.m.Snapshot(), p, s.Knows, catalog.Both, storage.AnyLabel, true)
}
