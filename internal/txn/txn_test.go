package txn

import (
	"fmt"
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

func TestSetPropVersions(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]

	v0 := m.Snapshot()
	tx := m.Begin([]vector.VID{p0})
	if err := tx.SetProp(p0, s.PFirstName, vector.String_("Ada2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v1 := m.Snapshot()

	tx2 := m.Begin([]vector.VID{p0})
	if err := tx2.SetProp(p0, s.PFirstName, vector.String_("Ada3")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	v2 := m.Snapshot()

	if got := v0.Prop(p0, s.PFirstName).S; got != "Ada" {
		t.Fatalf("v0 = %q", got)
	}
	if got := v1.Prop(p0, s.PFirstName).S; got != "Ada2" {
		t.Fatalf("v1 = %q", got)
	}
	if got := v2.Prop(p0, s.PFirstName).S; got != "Ada3" {
		t.Fatalf("v2 = %q", got)
	}
}

func TestWriteSetEnforcement(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	tx := m.Begin([]vector.VID{f.Persons[0]})
	defer tx.Abort()
	if err := tx.SetProp(f.Persons[1], s.PFirstName, vector.String_("x")); err == nil {
		t.Fatal("SetProp outside write set must fail")
	}
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

	tx := m.Begin([]vector.VID{p0})
	if err := tx.SetProp(p0, s.PFirstName, vector.String_("Nope")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := m.Snapshot().Prop(p0, s.PFirstName).S; got != "Ada" {
		t.Fatalf("aborted write visible: %q", got)
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
	if ov, ver := m.Stats(); ov == 0 || ver != writers*txPerWriter {
		t.Fatalf("stats = %d overlays, version %d", ov, ver)
	}
}

// TestOverlayPresenceUnderWriters races the lock-free record probe against
// IU-shaped commits: writers attach new posts to every other person while
// readers probe overlayOf for every base and created VID. Records are replaced,
// never removed, so a record a reader once saw is there on every later probe;
// at quiesce exactly the created vertices have one — the edges the commits
// wrote live in the graph and leave no record behind on the persons.
func TestOverlayPresenceUnderWriters(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	base := f.Graph.NumVertices()

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
			seen := make([]bool, base+created)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for v := range seen {
					present := m.overlayOf(vector.VID(v)) != nil
					if seen[v] && !present {
						t.Errorf("vertex %d: a record the probe returned before is gone", v)
						return
					}
					seen[v] = present
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	for v := vector.VID(0); int(v) < base+created; v++ {
		if got, want := m.overlayOf(v) != nil, int(v) >= base; got != want {
			t.Fatalf("vertex %d: record present = %v, want %v", v, got, want)
		}
	}
	if total, _ := m.Stats(); total != created {
		t.Fatalf("overlay vertices = %d, want the %d created ones", total, created)
	}
}

// TestConcurrentSameVertexWriters checks write-write serialization on one
// vertex: all increments survive.
func TestConcurrentSameVertexWriters(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]

	const n = 100
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			tx := m.Begin([]vector.VID{p0})
			// Read-modify-write under the lock: read latest committed.
			cur := m.Snapshot().Prop(p0, s.PCreation).I
			if err := tx.SetProp(p0, s.PCreation, vector.Date(cur+1)); err != nil {
				t.Error(err)
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := m.Snapshot().Prop(p0, s.PCreation).I
	if got != 19000+n {
		t.Fatalf("lost updates: creationDate = %d, want %d", got, 19000+n)
	}
}

func TestSnapshotAtTimeTravel(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema
	p0 := f.Persons[0]
	for i := 0; i < 5; i++ {
		tx := m.Begin([]vector.VID{p0})
		if err := tx.SetProp(p0, s.PFirstName, vector.String_(fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for ver := uint64(1); ver <= 5; ver++ {
		snap := m.SnapshotAt(ver)
		if got := snap.Prop(p0, s.PFirstName).S; got != fmt.Sprintf("v%d", ver) {
			t.Fatalf("version %d sees %q", ver, got)
		}
	}
	if got := m.SnapshotAt(0).Prop(p0, s.PFirstName).S; got != "Ada" {
		t.Fatalf("version 0 sees %q", got)
	}
}
