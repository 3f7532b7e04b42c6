package txn

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// TestPinnedVersionBoundsHorizon is the regression test for pinning: a
// snapshot's version is read and pinned in one step under the lock GCHorizon
// reads the version under. Were they two steps, a horizon computed in between
// could pass the version being pinned — and a reseal folding at it would show
// the snapshot commits made after it. Committers bump the version while
// folders compute horizons and readers acquire and release snapshots; every
// horizon a folder has published by the time a reader checks, while its
// snapshot is pinned, must be at or below that snapshot's version. Run with
// -race.
func TestPinnedVersionBoundsHorizon(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s, p := f.Schema, f.Persons
	var done atomic.Bool
	var maxHorizon atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // committer
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a, b := p[(w+i)%len(p)], p[(w+2*i+1)%len(p)]
				tx := m.Begin([]vector.VID{a, b})
				if err := tx.AddEdge(s.Knows, a, b, vector.Date(int64(i))); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() { // folder and reader in turn
			defer readers.Done()
			for !done.Load() {
				h := m.GCHorizon()
				for cur := maxHorizon.Load(); h > cur && !maxHorizon.CompareAndSwap(cur, h); cur = maxHorizon.Load() {
				}
				snap := m.AcquireSnapshot()
				if h := maxHorizon.Load(); h > snap.Version() {
					t.Errorf("a horizon of %d was computed while snapshot v%d was being pinned", h, snap.Version())
				}
				if h := m.GCHorizon(); h > snap.Version() {
					t.Errorf("GCHorizon %d passes live pinned snapshot v%d", h, snap.Version())
				}
				m.Release(snap)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if pinsOf(m) != 0 || m.GCHorizon() != m.Version() {
		t.Fatalf("after every release: %d pins, horizon %d, version %d", pinsOf(m), m.GCHorizon(), m.Version())
	}

	// Quiesced: the horizon is exactly the oldest pin while commits pass it,
	// a second Release of one snapshot is a no-op, and the horizon returns to
	// the newest version once nothing is pinned.
	commit := func() {
		tx := m.Begin([]vector.VID{p[0], p[1]})
		mustOK(t, tx.AddEdge(s.Knows, p[0], p[1], vector.Date(1)))
		mustOK(t, tx.Commit())
	}
	older := m.AcquireSnapshot()
	commit()
	newer := m.AcquireSnapshot()
	commit()
	if h := m.GCHorizon(); h != older.Version() {
		t.Fatalf("horizon %d, want the oldest pin %d", h, older.Version())
	}
	m.Release(older)
	m.Release(older)
	if h, n := m.GCHorizon(), pinsOf(m); h != newer.Version() || n != 1 {
		t.Fatalf("after releasing the oldest pin twice: horizon %d, %d pins; want %d, 1", h, n, newer.Version())
	}
	m.Release(newer)
	if h := m.GCHorizon(); h != m.Version() {
		t.Fatalf("horizon %d with nothing pinned, want version %d", h, m.Version())
	}
}

// pinsOf returns m's live pinned snapshots.
func pinsOf(m *Manager) int {
	n, _ := m.Stats()
	return n
}

// TestPinAllocatesNothing: pinning and unpinning run per request, so once the
// pin list has its capacity they allocate nothing; AcquireSnapshot adds only
// the snapshot itself.
func TestPinAllocatesNothing(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	held := m.AcquireSnapshot() // an older pin below the ones taken and dropped
	tx := m.Begin(nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { m.unpin(m.pin()) }); got != 0 {
		t.Fatalf("pin+unpin allocates %.0f times", got)
	}
	if got := testing.AllocsPerRun(100, func() { m.Release(m.AcquireSnapshot()) }); got > 1 {
		t.Fatalf("AcquireSnapshot+Release allocates %.0f times, want only the snapshot", got)
	}
	m.Release(held)
	if n := pinsOf(m); n != 0 {
		t.Fatalf("%d pins left", n)
	}
}

// historyImage is everything the history test reads through one view: the
// IU-shaped families, batched (with edge properties and Sorted) and one
// source at a time, from every person and every post the view holds; the posts'
// external ids and creation dates, gathered and scalar; the lookup of every
// external id a post may be created with; and the vertex count.
type historyImage struct {
	Sorted []bool
	Runs   [][][]vector.VID
	Props  [][][]int64
	Single [][][]vector.VID

	PostExts, PostDates, ScalarDates []int64
	ByExt                            []vector.VID
	NumVertices                      int
}

func captureHistory(v storage.View, s *testgraph.Schema, exts []int64) historyImage {
	persons, posts := v.ScanLabel(s.Person), v.ScanLabel(s.Post)
	var img historyImage
	img.PostExts = make([]int64, len(posts))
	v.GatherExtIDs(posts, nil, img.PostExts)
	dates := vector.NewColumn("creationDate", vector.KindDate)
	dates.Grow(len(posts))
	v.GatherProps(posts, s.Post, s.MCreation, nil, dates)
	img.PostDates = dates.Int64s()
	// Every view here is a *Graph or a VersionView, whose scalar Prop is the
	// reference the gather is held to.
	scalar := v.(interface {
		Prop(vector.VID, catalog.PropID) vector.Value
	})
	for _, p := range posts {
		img.ScalarDates = append(img.ScalarDates, scalar.Prop(p, s.MCreation).I)
	}
	for _, ext := range exts {
		vid, ok := v.VertexByExt(s.Post, ext)
		if !ok {
			vid = vector.NilVID
		}
		img.ByExt = append(img.ByExt, vid)
	}
	img.NumVertices = v.NumVertices()
	reads := []struct {
		srcs     []vector.VID
		et       catalog.EdgeTypeID
		dir      catalog.Direction
		dst      catalog.LabelID
		withProp bool
	}{
		{persons, s.Knows, catalog.Out, s.Person, true},
		{persons, s.Knows, catalog.Both, storage.AnyLabel, false},
		{persons, s.HasCreator, catalog.In, storage.AnyLabel, false},
		{persons, s.Likes, catalog.Out, storage.AnyLabel, true},
		{posts, s.HasCreator, catalog.Out, s.Person, false},
		{posts, s.Likes, catalog.In, s.Person, true},
	}
	for _, r := range reads {
		var b storage.Batch
		v.NeighborsBatch(r.srcs, r.et, r.dir, r.dst, r.withProp, &b)
		var runs, single [][]vector.VID
		var props [][]int64
		for i, src := range r.srcs {
			runs = append(runs, append([]vector.VID{}, b.Run(i)...))
			if r.withProp {
				var row []int64
				for _, p := range b.Pieces[b.Runs[i].Start:b.Runs[i].End] {
					cols, off := b.PieceCols(p)
					row = append(row, cols.I64[0][off:off+p.Len()]...)
				}
				props = append(props, row)
			}
			single = append(single, testgraph.NeighborVIDs(v, src, r.et, r.dir, r.dst))
		}
		img.Sorted = append(img.Sorted, b.Sorted)
		img.Runs = append(img.Runs, runs)
		img.Props = append(img.Props, props)
		img.Single = append(img.Single, single)
	}
	return img
}

// TestConcurrentHistoryMatchesModel checks MV2PL reads against a sequential
// model under -race. Committers issue IU-shaped transactions — a new post
// with its creator edge and a like, or a KNOWS pair between base persons —
// while pinned readers read their snapshot, wait for a reseal (the policy
// folds the deltas every few commits, each reseal on its own goroutine, up to
// the oldest pin), and read it again. The two reads must be byte-identical, and equal to the
// fixture plus the transactions committed at or below the snapshot, replayed
// in commit order into a fresh graph and sealed — posts created, scanned,
// gathered and looked up by external id included.
func TestConcurrentHistoryMatchesModel(t *testing.T) {
	f := testgraph.New()
	var pending sync.WaitGroup
	f.Graph.SetResealSubmit(func(task func()) bool {
		pending.Add(1)
		go func() { defer pending.Done(); task() }()
		return true
	})
	f.Graph.SetResealPolicy(1e-9, 4)
	m := NewManager(f.Graph)
	s, p := f.Schema, f.Persons

	type commit struct {
		ver  uint64
		post vector.VID // the created post, NilVID for a KNOWS pair
		a, b vector.VID // creator and liker, or the two friends
		ext  int64
		date int64
	}
	var (
		logMu sync.Mutex // serializes commit + log append, so the log is in commit order
		log   []commit
	)
	// Committers run until enough pinned reads have straddled a reseal (or a
	// bound on commits), so commits, reseals and reads overlap however the
	// goroutines are scheduled.
	const committers, maxPerCommitter, straddles = 2, 1500, 6
	var exts []int64 // every external id a committed post may carry
	for i := 0; i < committers*maxPerCommitter; i += 2 {
		exts = append(exts, int64(5000+i))
	}
	var done atomic.Bool
	var resealed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < maxPerCommitter && resealed.Load() < straddles; i++ {
				c := commit{post: vector.NilVID, a: p[rng.Intn(len(p))], b: p[rng.Intn(len(p))],
					ext: int64(5000 + w*maxPerCommitter + i), date: int64(30000 + w*maxPerCommitter + i)}
				logMu.Lock()
				tx := m.Begin([]vector.VID{c.a, c.b})
				var err error
				if i%2 == 0 {
					if c.post, err = tx.AddVertex(s.Post, c.ext, vector.String_("h"), vector.Int64(1), vector.Date(c.date)); err == nil {
						if err = tx.AddEdge(s.HasCreator, c.post, c.a); err == nil {
							err = tx.AddEdge(s.Likes, c.b, c.post, vector.Date(c.date))
						}
					}
				} else if err = tx.AddEdge(s.Knows, c.a, c.b, vector.Date(c.date)); err == nil {
					err = tx.AddEdge(s.Knows, c.b, c.a, vector.Date(c.date))
				}
				if err == nil {
					err = tx.Commit()
				}
				c.ver = m.Version()
				log = append(log, c)
				logMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}(w)
	}

	type observed struct {
		ver uint64
		img historyImage
	}
	var (
		obsMu sync.Mutex
		obs   []observed
	)
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				snap := m.AcquireSnapshot()
				first := captureHistory(snap, s, exts)
				// Wait for a reseal, but not for ever: one can fold only what
				// is at or below the oldest pin, which may be this one.
				r0, v0 := f.Graph.Overlay().Reseals, m.Version()
				for f.Graph.Overlay().Reseals == r0 && m.Version() < v0+32 && !done.Load() {
					runtime.Gosched()
				}
				crossed := f.Graph.Overlay().Reseals > r0
				second := captureHistory(snap, s, exts)
				m.Release(snap)
				if !reflect.DeepEqual(first, second) {
					t.Errorf("snapshot v%d read differently across a reseal", snap.Version())
					return
				}
				if crossed {
					resealed.Add(1)
					obsMu.Lock()
					if len(obs) < 24 {
						obs = append(obs, observed{snap.Version(), first})
					}
					obsMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	pending.Wait()
	if t.Failed() {
		return
	}
	if resealed.Load() == 0 {
		t.Fatal("no pinned read straddled a reseal")
	}
	last := m.AcquireSnapshot()
	obs = append(obs, observed{last.Version(), captureHistory(last, s, exts)})
	m.Release(last)

	for _, o := range obs {
		model := testgraph.New()
		for _, c := range log {
			if c.ver > o.ver {
				break
			}
			g := model.Graph
			if c.post == vector.NilVID {
				mustOK(t, g.AddEdge(s.Knows, c.a, c.b, vector.Date(c.date)))
				mustOK(t, g.AddEdge(s.Knows, c.b, c.a, vector.Date(c.date)))
				continue
			}
			v, err := g.AddVertex(s.Post, c.ext, vector.String_("h"), vector.Int64(1), vector.Date(c.date))
			mustOK(t, err)
			if v != c.post {
				t.Fatalf("model post VID %d, committed %d", v, c.post)
			}
			mustOK(t, g.AddEdge(s.HasCreator, c.post, c.a))
			mustOK(t, g.AddEdge(s.Likes, c.b, c.post, vector.Date(c.date)))
		}
		// The replayed posts load after the comments, so the seal moves them
		// into the posts' VIDs (storage's layout): name the model's vertices
		// by the VIDs they were loaded at, which are the committed ones. A
		// label's rows keep their relative order, and a piece holds one label.
		g := model.Graph
		loaded := make([][2]int64, g.NumVertices()) // label, ext id
		for v := range loaded {
			loaded[v] = [2]int64{int64(g.LabelOf(vector.VID(v))), g.ExtID(vector.VID(v))}
		}
		g.SealCSR()
		toCommitted := map[vector.VID]vector.VID{vector.NilVID: vector.NilVID}
		for v, le := range loaded {
			at, _ := g.VertexByExt(catalog.LabelID(le[0]), le[1])
			toCommitted[at] = vector.VID(v)
		}
		want := captureHistory(g, s, exts)
		for _, vids := range append(slices.Concat(want.Runs...), append(slices.Concat(want.Single...), want.ByExt)...) {
			for k, v := range vids {
				vids[k] = toCommitted[v]
			}
		}
		if !reflect.DeepEqual(o.img, want) {
			t.Fatalf("snapshot v%d diverges from the sequential model replayed up to it", o.ver)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
