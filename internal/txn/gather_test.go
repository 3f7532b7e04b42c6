package txn

import (
	"testing"

	"ges/internal/testgraph"
	"ges/internal/vector"
)

// TestGatherAcrossOverlays is the batch-read contract of the transaction
// layer: GatherProps must agree row-for-row with the scalar Prop path when
// committed overlays shadow base rows — including dictionary codes minted by
// a transaction for strings the base never stored — and vertices born inside
// a transaction must gather their creation-time property rows.
func TestGatherAcrossOverlays(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	before := m.Snapshot()

	p0, p3 := f.Persons[0], f.Persons[3]
	tx := m.Begin([]vector.VID{p0, p3})
	// "Zelda" was never interned at load time: the overlay write mints a new
	// dictionary code that the gather path must carry through.
	if err := tx.SetProp(p0, s.PFirstName, vector.String_("Zelda")); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetProp(p3, s.PCreation, vector.Date(42)); err != nil {
		t.Fatal(err)
	}
	nv, err := tx.AddVertex(s.Person, 900, vector.String_("Newt"), vector.String_("Born"), vector.Date(20500))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	after := m.Snapshot()
	vids := append(append([]vector.VID{}, f.Persons...), nv)

	checkAgainstScalar := func(snap *Snapshot, label string) {
		t.Helper()
		name := vector.NewDictColumn("firstName", snap.PropDict(s.Person, s.PFirstName))
		name.Grow(len(vids))
		snap.GatherProps(vids, s.Person, s.PFirstName, nil, name)
		created := vector.NewColumn("creationDate", vector.KindDate)
		created.Grow(len(vids))
		snap.GatherProps(vids, s.Person, s.PCreation, nil, created)
		ext := make([]int64, len(vids))
		snap.GatherExtIDs(vids, nil, ext)
		for i, v := range vids {
			if got, want := name.StringAt(i), snap.Prop(v, s.PFirstName).S; got != want {
				t.Fatalf("%s: firstName[%d] = %q, want %q", label, i, got, want)
			}
			if got, want := created.Int64s()[i], snap.Prop(v, s.PCreation).I; got != want {
				t.Fatalf("%s: creationDate[%d] = %d, want %d", label, i, got, want)
			}
			if ext[i] != snap.ExtID(v) {
				t.Fatalf("%s: ext[%d] = %d, want %d", label, i, ext[i], snap.ExtID(v))
			}
		}
	}
	checkAgainstScalar(after, "after")

	// Spot-check the shadowing itself, not just scalar agreement.
	name := vector.NewDictColumn("firstName", after.PropDict(s.Person, s.PFirstName))
	name.Grow(len(vids))
	after.GatherProps(vids, s.Person, s.PFirstName, nil, name)
	if got := name.StringAt(0); got != "Zelda" {
		t.Fatalf("overlay row not shadowed: firstName[0] = %q", got)
	}
	if got := name.StringAt(len(vids) - 1); got != "Newt" {
		t.Fatalf("txn-born vertex not gathered: %q", got)
	}

	// The pre-transaction snapshot must keep gathering base values; its
	// scalar agreement covers the unshadowed base (nv rows are simply
	// invisible to it, matching Prop's invalid value as typed zero).
	old := vector.NewDictColumn("firstName", before.PropDict(s.Person, s.PFirstName))
	old.Grow(len(f.Persons))
	before.GatherProps(f.Persons, s.Person, s.PFirstName, nil, old)
	if got := old.StringAt(0); got != "Ada" {
		t.Fatalf("old snapshot sees overlay: firstName[0] = %q", got)
	}
}

// TestGatherTiersUnderOverlays pins the optional-interface contract: a clean
// snapshot keeps the zero-copy share and zone pruning tiers; once overlays
// exist the share tier shuts off, and zone pruning goes on per vertex — base
// zones still rule out untouched rows, while a row with an overlay keeps its
// selection bit (its new value could match even though its base zone cannot).
func TestGatherTiersUnderOverlays(t *testing.T) {
	f := testgraph.New()
	m := NewManager(f.Graph)
	s := f.Schema

	clean := m.Snapshot()
	scan := clean.ScanLabel(s.Person)
	if clean.ShareScanColumn(s.Person, s.PCreation, scan) == nil {
		t.Fatal("clean snapshot refused zero-copy share")
	}
	var sel vector.Bitset
	sel.Resize(len(scan), true)
	cleanPruned, total := clean.PruneZones(scan, s.Person, s.PCreation, 0, 10, &sel)
	if total == 0 || cleanPruned == 0 || sel.Any() {
		t.Fatalf("clean snapshot: pruned %d of %d zones, %d rows left; want every zone ruled out", cleanPruned, total, sel.Count())
	}

	// The write moves Persons[0] into the probed range; Persons[1] gets an
	// overlay that leaves the probed property alone.
	p0, p1 := f.Persons[0], f.Persons[1]
	tx := m.Begin([]vector.VID{p0, p1})
	if err := tx.SetProp(p0, s.PCreation, vector.Date(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetProp(p1, s.PFirstName, vector.String_("Renamed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	dirty := m.Snapshot()
	if dirty.ShareScanColumn(s.Person, s.PCreation, scan) != nil {
		t.Fatal("overlaid snapshot must not share the base column")
	}
	sel.Resize(len(scan), true)
	sel.SetAll()
	sel.Clear(2) // a row the caller had already rejected stays rejected
	pruned, total := dirty.PruneZones(scan, s.Person, s.PCreation, 0, 10, &sel)
	if pruned != cleanPruned || total == 0 {
		t.Fatalf("overlaid snapshot pruned %d of %d zones, want %d: unrelated overlays must not switch pruning off", pruned, total, cleanPruned)
	}
	for i, v := range scan {
		if want := v == p0 || v == p1; sel.Get(i) != want {
			t.Fatalf("row %d (vid %d): selected=%v, want %v (only rows with an overlay survive)", i, v, sel.Get(i), want)
		}
	}
	// The surviving candidates are then decided by their snapshot values.
	col := vector.NewColumn("creationDate", vector.KindDate)
	col.Grow(len(scan))
	dirty.GatherProps(scan, s.Person, s.PCreation, &sel, col)
	if got := col.Int64s()[0]; scan[0] != p0 || got != 7 {
		t.Fatalf("overlaid row gathered %d, want the committed 7", got)
	}
}
