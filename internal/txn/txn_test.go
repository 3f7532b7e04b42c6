package txn

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

func neighborsOf(v storage.View, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction) []vector.VID {
	var out []vector.VID
	for _, seg := range v.Neighbors(nil, src, et, dir, storage.AnyLabel, false) {
		out = append(out, seg.VIDs...)
	}
	return out
}

func TestSnapshotSeesOnlyCommittedState(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	before := m.Snapshot()
	p0, p9 := f.Persons[0], f.Persons[9]

	tx := m.Begin([]vector.VID{p0, p9})
	if err := tx.AddEdge(s.Knows, p0, p9, vector.Date(20000)); err != nil {
		t.Fatal(err)
	}
	// Not yet committed: no snapshot sees it.
	mid := m.Snapshot()
	if got := len(neighborsOf(mid, p0, s.Knows, catalog.Out)); got != 3 {
		t.Fatalf("uncommitted edge visible: %d neighbors", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	after := m.Snapshot()
	if got := len(neighborsOf(after, p0, s.Knows, catalog.Out)); got != 4 {
		t.Fatalf("committed edge not visible: %d neighbors", got)
	}
	if got := len(neighborsOf(after, p9, s.Knows, catalog.In)); got != 2 {
		t.Fatalf("reverse edge not visible: %d", got)
	}
	// The old snapshot is immutable.
	if got := len(neighborsOf(before, p0, s.Knows, catalog.Out)); got != 3 {
		t.Fatalf("old snapshot changed: %d neighbors", got)
	}
	if got := len(neighborsOf(mid, p0, s.Knows, catalog.Out)); got != 3 {
		t.Fatalf("mid snapshot changed: %d", got)
	}
}

func TestAddVertexVisibility(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	before := m.Snapshot()
	tx := m.Begin(nil)
	nv, err := tx.AddVertex(s.Person, 555, vector.String_("Zed"), vector.String_("New"), vector.Date(20001))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()

	if _, ok := before.VertexByExt(s.Person, 555); ok {
		t.Fatal("old snapshot sees new vertex")
	}
	got, ok := after.VertexByExt(s.Person, 555)
	if !ok || got != nv {
		t.Fatalf("VertexByExt = %d, %v", got, ok)
	}
	if after.LabelOf(nv) != s.Person {
		t.Fatal("label wrong")
	}
	if after.ExtID(nv) != 555 {
		t.Fatal("ext id wrong")
	}
	if v := after.Prop(nv, s.PFirstName); v.S != "Zed" {
		t.Fatalf("prop = %v", v)
	}
	if before.NumVertices()+1 != after.NumVertices() {
		t.Fatalf("NumVertices %d -> %d", before.NumVertices(), after.NumVertices())
	}
	if len(after.ScanLabel(s.Person)) != len(before.ScanLabel(s.Person))+1 {
		t.Fatal("ScanLabel did not grow")
	}
}

func TestWriteSetEnforcement(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	tx := m.Begin([]vector.VID{f.Persons[0]})
	defer tx.Abort()
	if err := tx.AddEdge(s.Knows, f.Persons[0], f.Persons[1]); err == nil {
		t.Fatal("AddEdge with unlocked endpoint must fail")
	}
	if err := tx.AddEdge(s.Knows, f.Persons[0], f.Persons[0]); err != nil {
		t.Fatalf("self edge within write set should work: %v", err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]

	before := neighborsOf(m.Snapshot(), p0, s.Knows, catalog.Out)
	tx := m.Begin([]vector.VID{p0})
	nv, err := tx.AddVertex(s.Person, 556, vector.String_("Nope"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(s.Knows, p0, nv); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	snap := m.Snapshot()
	if _, ok := snap.VertexByExt(s.Person, 556); ok || f.Graph.HasVertex(nv) {
		t.Fatal("aborted vertex visible")
	}
	if got := neighborsOf(snap, p0, s.Knows, catalog.Out); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("aborted edge visible: %v, want %v", got, before)
	}
	// Locks must be released: a new txn on the same vertex proceeds.
	tx2 := m.Begin([]vector.VID{p0})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUseAfterFinish(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	tx := m.Begin(nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	if _, err := tx.AddVertex(f.Schema.Person, 1); err == nil {
		t.Fatal("write after commit must fail")
	}
}

func TestEdgeToNewVertexSameTxn(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]

	tx := m.Begin([]vector.VID{p0})
	post, err := tx.AddVertex(s.Post, 999, vector.String_("np"), vector.Int64(77), vector.Date(20002))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(s.HasCreator, post, p0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	ns := neighborsOf(snap, post, s.HasCreator, catalog.Out)
	if len(ns) != 1 || ns[0] != p0 {
		t.Fatalf("creator of new post = %v", ns)
	}
	back := neighborsOf(snap, p0, s.HasCreator, catalog.In)
	found := false
	for _, v := range back {
		if v == post {
			found = true
		}
	}
	if !found {
		t.Fatal("reverse edge to new vertex missing")
	}
	if got := snap.Prop(post, s.MLength); got.I != 77 {
		t.Fatalf("new vertex prop = %v", got)
	}
}

func TestEdgePropsThroughOverlay(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0, p9 := f.Persons[0], f.Persons[9]
	tx := m.Begin([]vector.VID{p0, p9})
	if err := tx.AddEdge(s.Knows, p0, p9, vector.Date(12345)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	segs := m.Snapshot().Neighbors(nil, p0, s.Knows, catalog.Out, s.Person, true)
	var found bool
	for _, seg := range segs {
		for i, v := range seg.VIDs {
			if v == p9 {
				if seg.PropI64[0][i] != 12345 {
					t.Fatalf("overlay edge prop = %d", seg.PropI64[0][i])
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("overlay edge not found with props")
	}
}

// TestConcurrentWritersAndReaders hammers the manager with parallel writers
// (disjoint and overlapping write sets) and readers validating snapshot
// consistency. Run under -race this is the MV2PL safety test.
func TestConcurrentWritersAndReaders(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	const writers = 8
	const txPerWriter = 50
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWriter; i++ {
				target := f.Persons[(w+i)%len(f.Persons)]
				tx := m.Begin([]vector.VID{target})
				ext := int64(10_000 + w*txPerWriter + i)
				post, err := tx.AddVertex(s.Post, ext, vector.String_("c"), vector.Int64(ext), vector.Date(ext))
				if err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.AddEdge(s.HasCreator, post, target); err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: every snapshot must be internally consistent — each visible
	// post (ext >= 10000) has exactly one creator, and the out-edge count of
	// a person only grows across snapshot versions.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(4)
	for r := 0; r < 4; r++ {
		go func() {
			defer rg.Done()
			lastCount := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot()
				total := 0
				for _, p := range f.Persons {
					total += len(neighborsOf(snap, p, s.HasCreator, catalog.In))
				}
				if total < lastCount {
					t.Errorf("creator edge count regressed: %d -> %d", lastCount, total)
					return
				}
				lastCount = total
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	snap := m.Snapshot()
	total := 0
	for _, p := range f.Persons {
		total += len(neighborsOf(snap, p, s.HasCreator, catalog.In))
	}
	// 12 fixture creator edges + writers*txPerWriter new ones.
	want := 12 + writers*txPerWriter
	if total != want {
		t.Fatalf("final creator edges = %d, want %d", total, want)
	}
	if got, want := len(snap.ScanLabel(s.Post)), len(f.Posts)+writers*txPerWriter; got != want {
		t.Fatalf("posts = %d, want %d", got, want)
	}
	if pins, ver := m.Stats(); pins != 0 || ver != writers*txPerWriter {
		t.Fatalf("stats = %d pins, version %d", pins, ver)
	}
}

// TestOverlayPresenceUnderWriters races the lock-free vertex probes against
// IU-shaped commits: writers attach new posts to every other person while
// readers probe the graph — HasVertex and ExtID — for every base and created
// VID. A commit appends a vertex and never moves or removes one, so a vertex a
// reader once saw is there, with the same external id, on every later probe;
// at quiesce every created VID holds its post.
func TestOverlayPresenceUnderWriters(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s, g := f.Schema, f.Graph
	base := g.NumVertices()

	const writers = 4
	const txPerWriter = 50
	const created = writers * txPerWriter
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWriter; i++ {
				target := f.Persons[2*((w+i)%(len(f.Persons)/2))]
				tx := m.Begin([]vector.VID{target})
				ext := int64(20_000 + w*txPerWriter + i)
				post, err := tx.AddVertex(s.Post, ext, vector.String_("c"), vector.Int64(ext), vector.Date(ext))
				if err == nil {
					err = tx.AddEdge(s.HasCreator, post, target)
				}
				if err != nil {
					t.Error(err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(4)
	for r := 0; r < 4; r++ {
		go func() {
			defer rg.Done()
			seen := make([]int64, base+created) // ext id seen, 0: no vertex yet
			for {
				select {
				case <-stop:
					return
				default:
				}
				for v := range seen {
					var ext int64
					if g.HasVertex(vector.VID(v)) {
						ext = g.ExtID(vector.VID(v))
					}
					if seen[v] != 0 && ext != seen[v] {
						t.Errorf("vertex %d: ext %d seen before, now %d", v, seen[v], ext)
						return
					}
					seen[v] = ext
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	for v := vector.VID(base); int(v) < base+created; v++ {
		if !g.HasVertex(v) || g.LabelOf(v) != s.Post || g.Prop(v, s.MLength).I != g.ExtID(v) {
			t.Fatalf("created vertex %d: present %v, label %d, ext %d", v, g.HasVertex(v), g.LabelOf(v), g.ExtID(v))
		}
	}
	if g.HasVertex(vector.VID(base + created)) {
		t.Fatal("a VID no transaction allocated holds a vertex")
	}
}

// TestConcurrentSameVertexWriters checks write-write serialization on one
// vertex: each transaction reads p0's self-loop count under its lock and
// commits the next loop stamped with it, so the stamps are 0..n-1, each once,
// only if no two transactions read the same count.
func TestConcurrentSameVertexWriters(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]
	loops := func(v storage.View) []int64 {
		var out []int64
		for _, seg := range v.Neighbors(nil, p0, s.Knows, catalog.Out, s.Person, true) {
			for k, d := range seg.VIDs {
				if d == p0 {
					out = append(out, seg.PropI64[0][k])
				}
			}
		}
		return out
	}

	const n = 100
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			tx := m.Begin([]vector.VID{p0})
			// Read-modify-write under the lock: read latest committed.
			cur := len(loops(m.Snapshot()))
			if err := tx.AddEdge(s.Knows, p0, p0, vector.Date(int64(cur))); err != nil {
				t.Error(err)
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := loops(m.Snapshot())
	slices.Sort(got)
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("lost updates: loop stamps %v, want 0..%d once each", got, n-1)
		}
	}
	if len(got) != n {
		t.Fatalf("%d loops, want %d", len(got), n)
	}
}

// TestSnapshotAtTimeTravel: the graph at each committed version holds
// exactly the edges committed at or below it.
func TestSnapshotAtTimeTravel(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]
	base := len(neighborsOf(m.Snapshot(), p0, s.Knows, catalog.Out))
	for i := 0; i < 5; i++ {
		tx := m.Begin([]vector.VID{p0})
		if err := tx.AddEdge(s.Knows, p0, p0, vector.Date(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for ver := uint64(0); ver <= 5; ver++ {
		if got := len(neighborsOf(m.Graph().At(ver), p0, s.Knows, catalog.Out)); got != base+int(ver) {
			t.Fatalf("version %d sees %d KNOWS edges, want %d", ver, got, base+int(ver))
		}
	}
}

// TestUnknownEdgeTypeKeepsCommitAtomic: an edge of a type the catalog does
// not hold is refused when it is buffered, so a commit never fails half way —
// after appending the transaction's created vertices, before publishing its
// version — and no later commit's version makes such a vertex visible.
func TestUnknownEdgeTypeKeepsCommitAtomic(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]
	tx := m.Begin([]vector.VID{p0})
	nv, err := tx.AddVertex(s.Person, 777, vector.String_("Half"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(200, p0, nv); err == nil {
		t.Fatal("AddEdge of an unknown edge type succeeded")
	}
	tx.Abort()
	if err := m.Begin(nil).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Snapshot().VertexByExt(s.Person, 777); ok || f.Graph.HasVertex(nv) {
		t.Fatal("a vertex of an aborted transaction is visible")
	}
	if pins, ver := m.Stats(); pins != 0 || ver != 1 {
		t.Fatalf("stats = %d pins, version %d; want 0, 1", pins, ver)
	}
}
