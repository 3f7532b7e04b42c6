package storage_test

import (
	"math/rand"
	"testing"

	"ges/internal/catalog"
	"ges/internal/paritytest"
	"ges/internal/storage"
	"ges/internal/vector"
)

// scalarGraph returns the graph behind a parity view: the *Graph whose
// scalar Prop and ExtID are the reference the gathers are held to.
func scalarGraph(t *testing.T, v storage.View) *storage.Graph {
	t.Helper()
	switch v := v.(type) {
	case *storage.Graph:
		return v
	case *storage.VersionView:
		return v.Graph
	}
	t.Fatalf("view %T has no scalar reference", v)
	return nil
}

// TestGatherContract holds the two property reads storage.View offers —
// GatherProps and GatherExtIDs — to the scalar Graph.Prop and Graph.ExtID.
// The volcano oracle reads vertices through one-row gathers, so this test is
// what makes it an independent reference for the engine's gathers.
//
// The table covers every LDBC (label, property) on the four parity views
// (sealed, unsealed, delta overlay, txn snapshot), each view holding a
// person created by a commit — a tail row past the base arrays on all but
// the reloaded view. Every case runs over the label's scan order and over a
// shuffled mixed-label VID set (every vertex of every label, the created
// person, and a VID no vertex has), with no selection and with a random one,
// into a plain column and — for a dictionary-encoded string — into a column
// sharing the storage dictionary. A row is written iff it is selected and
// its vertex carries the label; every other row keeps what it held.
func TestGatherContract(t *testing.T) {
	ds, views := paritytest.LDBCViews(t, 0.03, 7)
	cat := ds.Graph.Catalog()
	rng := rand.New(rand.NewSource(11))
	for _, pv := range views {
		t.Run(pv.Name, func(t *testing.T) {
			view, g := pv.View, scalarGraph(t, pv.View)
			created, ok := view.VertexByExt(ds.H.Person, paritytest.CreatedPerson)
			if !ok {
				t.Fatal("the created person is not visible")
			}
			var mixed []vector.VID
			for l := 0; l < cat.NumLabels(); l++ {
				mixed = append(mixed, view.ScanLabel(catalog.LabelID(l))...)
			}
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			mixed = append(mixed, created, vector.NilVID)

			type vidSet struct {
				name string
				vids []vector.VID
			}
			selections := func(n int) []*vector.Bitset {
				random := vector.NewBitsetEmpty(n)
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						random.Set(i)
					}
				}
				return []*vector.Bitset{nil, random}
			}
			selected := func(sel *vector.Bitset, i int) bool { return sel == nil || sel.Get(i) }

			tailRows := 0
			for l := 0; l < cat.NumLabels(); l++ {
				label := catalog.LabelID(l)
				sets := []vidSet{{"scan", view.ScanLabel(label)}, {"mixed", mixed}}
				for p, def := range cat.LabelProps(label) {
					pid := catalog.PropID(p)
					for _, set := range sets {
						vids := set.vids
						if len(vids) == 0 {
							continue
						}
						for _, sel := range selections(len(vids)) {
							outs := []*vector.Column{vector.NewColumn(def.Name, def.Kind)}
							if d := view.PropDict(label, pid); d != nil {
								outs = append(outs, vector.NewDictColumn(def.Name, d))
							}
							for _, out := range outs {
								// A plain column starts at a sentinel, so a row the
								// gather must leave alone shows if it was written; a
								// dictionary column stays at code 0 (a sentinel
								// string would be interned into storage's dictionary).
								out.Grow(len(vids))
								untouched := vector.Value{Kind: def.Kind}
								if !out.DictEncoded() {
									untouched = vector.Value{Kind: def.Kind, I: -7, F: -7, S: "~"}
									for i := range vids {
										out.Set(i, untouched)
									}
									untouched = out.Get(0)
								}
								view.GatherProps(vids, label, pid, sel, out)
								for i, v := range vids {
									want := untouched
									if selected(sel, i) && g.HasVertex(v) && g.LabelOf(v) == label {
										want = g.Prop(v, pid)
										if v == created {
											tailRows++
										}
									}
									if got := out.Get(i); got != want {
										t.Fatalf("%s.%s over %s (sel %v, dict %v): row %d (vid %d) = %v, want %v",
											cat.LabelName(label), def.Name, set.name, sel != nil, out.DictEncoded(), i, v, got, want)
									}
								}
							}
						}
					}
				}
			}
			if tailRows == 0 {
				t.Fatal("no case read the created person")
			}

			for _, set := range []vidSet{{"scan", view.ScanLabel(ds.H.Person)}, {"mixed", mixed}} {
				for _, sel := range selections(len(set.vids)) {
					out := make([]int64, len(set.vids))
					for i := range out {
						out[i] = -7
					}
					view.GatherExtIDs(set.vids, sel, out)
					for i, v := range set.vids {
						want := int64(-7)
						if selected(sel, i) && g.HasVertex(v) {
							want = g.ExtID(v)
						}
						if out[i] != want {
							t.Fatalf("external ids over %s (sel %v): row %d (vid %d) = %d, want %d",
								set.name, sel != nil, i, v, out[i], want)
						}
					}
				}
			}
		})
	}
}
