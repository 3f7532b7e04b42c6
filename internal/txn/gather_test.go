package txn

import (
	"testing"

	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// TestGatherAcrossOverlays is the batch-read contract of the transaction
// layer: GatherProps must agree row-for-row with the scalar Prop path over
// base vertices and a vertex a transaction created — including a dictionary
// code its commit minted for a string the base never stored — and a snapshot
// taken before the commit keeps gathering the base rows as they were loaded.
func TestGatherAcrossOverlays(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	before := m.Snapshot()

	p0 := f.Persons[0]
	tx := m.Begin([]vector.VID{p0})
	// "Zelda" was never interned at load time: the commit mints a new
	// dictionary code that the gather path must carry through.
	nv, err := tx.AddVertex(s.Person, 900, vector.String_("Zelda"), vector.String_("Born"), vector.Date(20500))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(s.Knows, p0, nv, vector.Date(20501)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	after := m.Snapshot()
	vids := append(append([]vector.VID{}, f.Persons...), nv)

	gatherNames := func(snap storage.VersionView, vids []vector.VID) *vector.Column {
		name := vector.NewDictColumn("firstName", snap.PropDict(s.Person, s.PFirstName))
		name.Grow(len(vids))
		snap.GatherProps(vids, s.Person, s.PFirstName, nil, name)
		return name
	}
	name := gatherNames(after, vids)
	created := vector.NewColumn("creationDate", vector.KindDate)
	created.Grow(len(vids))
	after.GatherProps(vids, s.Person, s.PCreation, nil, created)
	ext := make([]int64, len(vids))
	after.GatherExtIDs(vids, nil, ext)
	for i, v := range vids {
		if got, want := name.StringAt(i), after.Prop(v, s.PFirstName).S; got != want {
			t.Fatalf("firstName[%d] = %q, want %q", i, got, want)
		}
		if got, want := created.Int64s()[i], after.Prop(v, s.PCreation).I; got != want {
			t.Fatalf("creationDate[%d] = %d, want %d", i, got, want)
		}
		if ext[i] != after.ExtID(v) {
			t.Fatalf("ext[%d] = %d, want %d", i, ext[i], after.ExtID(v))
		}
	}
	if got := name.StringAt(len(vids) - 1); got != "Zelda" {
		t.Fatalf("txn-born vertex not gathered: %q", got)
	}

	// The pre-transaction snapshot does not reach the created vertex and
	// gathers the base rows unchanged.
	if len(before.ScanLabel(s.Person)) != len(f.Persons) {
		t.Fatal("the old snapshot scans the created vertex")
	}
	if got := gatherNames(before, f.Persons).StringAt(0); got != "Ada" {
		t.Fatalf("old snapshot: firstName[0] = %q", got)
	}
}

// TestGatherTiersUnderOverlays pins the optional-interface contract: no row
// changes once written, so a snapshot keeps the zero-copy share and zone
// pruning tiers over the base rows however many commits have landed, at
// every version. A created vertex is a tail row in no zone map: a scan that
// holds one shares no column, and pruning leaves its selection bit for its
// gathered value to decide.
func TestGatherTiersUnderOverlays(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	clean := m.Snapshot()
	scan := clean.ScanLabel(s.Person)
	p0, p1 := f.Persons[0], f.Persons[1]
	tx := m.Begin([]vector.VID{p0, p1})
	if err := tx.AddEdge(s.Knows, p0, p1, vector.Date(1)); err != nil {
		t.Fatal(err)
	}
	// The created person falls into the probed range.
	nv, err := tx.AddVertex(s.Person, 901, vector.String_("Newt"), vector.String_("Born"), vector.Date(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()

	var sel vector.Bitset
	for name, snap := range map[string]storage.VersionView{"before": clean, "after": after} {
		if snap.ShareScanColumn(s.Person, s.PCreation, scan) == nil {
			t.Fatalf("%s the commit: zero-copy share of the base rows refused", name)
		}
		sel.Resize(len(scan), true)
		sel.SetAll()
		pruned, total := snap.PruneZones(scan, s.Person, s.PCreation, 0, 10, &sel)
		if total == 0 || pruned == 0 || sel.Any() {
			t.Fatalf("%s the commit: pruned %d of %d zones, %d rows left; want every zone ruled out", name, pruned, total, sel.Count())
		}
	}

	rows := after.ScanLabel(s.Person)
	if len(rows) != len(scan)+1 || rows[len(scan)] != nv {
		t.Fatalf("scan after the commit = %v, want the base rows then %d", rows, nv)
	}
	if after.ShareScanColumn(s.Person, s.PCreation, rows) != nil {
		t.Fatal("a scan holding a tail row must not share the base column")
	}
	sel.Resize(len(rows), true)
	sel.SetAll()
	sel.Clear(2) // a row the caller had already rejected stays rejected
	after.PruneZones(rows, s.Person, s.PCreation, 0, 10, &sel)
	for i, v := range rows {
		if want := v == nv; sel.Get(i) != want {
			t.Fatalf("row %d (vid %d): selected=%v, want %v (only the tail row survives)", i, v, sel.Get(i), want)
		}
	}
	col := vector.NewColumn("creationDate", vector.KindDate)
	col.Grow(len(rows))
	after.GatherProps(rows, s.Person, s.PCreation, &sel, col)
	if got := col.Int64s()[len(scan)]; got != 7 {
		t.Fatalf("tail row gathered %d, want the committed 7", got)
	}
}
