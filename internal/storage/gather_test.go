package storage

import (
	"fmt"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// gatherFixture builds a graph with enough persons to span several zones and
// two labels so cross-label gathers leave foreign rows untouched.
func gatherFixture(t *testing.T, n int) (*Graph, catalog.LabelID, catalog.LabelID) {
	t.Helper()
	cat := catalog.New()
	person, _ := cat.AddLabel("Person",
		catalog.PropDef{Name: "name", Kind: vector.KindString},
		catalog.PropDef{Name: "age", Kind: vector.KindInt64})
	city, _ := cat.AddLabel("City",
		catalog.PropDef{Name: "name", Kind: vector.KindString})
	g := NewGraph(cat)
	for i := 0; i < n; i++ {
		if _, err := g.AddVertex(person, int64(i+1),
			vector.String_(fmt.Sprintf("p%d", i%7)), vector.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := g.AddVertex(city, int64(i+1), vector.String_(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return g, person, city
}

// TestGatherPropsMatchesScalar compares the bulk gather against per-row Prop
// reads over a mixed-label VID column, for an int column and a
// dictionary-encoded string column.
func TestGatherPropsMatchesScalar(t *testing.T) {
	g, person, city := gatherFixture(t, 50)
	vids := append(append([]vector.VID{}, g.ScanLabel(city)...), g.ScanLabel(person)...)

	age := vector.NewColumn("age", vector.KindInt64)
	age.Grow(len(vids))
	g.GatherProps(vids, person, 1, nil, age)

	name := vector.NewDictColumn("name", g.PropDict(person, 0))
	name.Grow(len(vids))
	g.GatherProps(vids, person, 0, nil, name)

	for i, v := range vids {
		if g.LabelOf(v) != person {
			if age.Int64s()[i] != 0 || name.StringAt(i) != "" {
				t.Fatalf("row %d (foreign label) not left at typed zero", i)
			}
			continue
		}
		if want := g.Prop(v, 1).I; age.Int64s()[i] != want {
			t.Fatalf("age[%d] = %d, want %d", i, age.Int64s()[i], want)
		}
		if want := g.Prop(v, 0).S; name.StringAt(i) != want {
			t.Fatalf("name[%d] = %q, want %q", i, name.StringAt(i), want)
		}
	}

	// Selection-masked gather leaves cleared rows untouched.
	var sel vector.Bitset
	sel.Resize(len(vids), true)
	sel.Clear(len(vids) - 1)
	masked := vector.NewColumn("age", vector.KindInt64)
	masked.Grow(len(vids))
	g.GatherProps(vids, person, 1, &sel, masked)
	if masked.Int64s()[len(vids)-1] != 0 {
		t.Fatal("masked row was gathered")
	}
}

// TestGatherExtIDsMatchesScalar checks the external-ID bulk path.
func TestGatherExtIDsMatchesScalar(t *testing.T) {
	g, person, _ := gatherFixture(t, 20)
	vids := g.ScanLabel(person)
	out := make([]int64, len(vids))
	g.GatherExtIDs(vids, nil, out)
	for i, v := range vids {
		if out[i] != g.ExtID(v) {
			t.Fatalf("ext[%d] = %d, want %d", i, out[i], g.ExtID(v))
		}
	}
}

// TestShareScanColumn verifies the zero-copy tier engages exactly when the
// VID column is the label's scan order.
func TestShareScanColumn(t *testing.T) {
	g, person, _ := gatherFixture(t, 30)
	vids := append([]vector.VID{}, g.ScanLabel(person)...)
	if col := g.ShareScanColumn(person, 1, vids); col == nil {
		t.Fatal("scan-aligned share refused")
	}
	vids[0], vids[1] = vids[1], vids[0]
	if col := g.ShareScanColumn(person, 1, vids); col != nil {
		t.Fatal("permuted VIDs must not share")
	}
	if col := g.ShareScanColumn(person, 1, vids[:10]); col != nil {
		t.Fatal("prefix must not share")
	}
}

// TestPruneZones spans multiple zones with a monotone column and checks that
// zones outside the range are pruned and their candidate bits cleared.
func TestPruneZones(t *testing.T) {
	n := 3*vector.ZoneSize + 100
	g, person, _ := gatherFixture(t, n)
	vids := g.ScanLabel(person)
	var sel vector.Bitset
	sel.Resize(len(vids), true)
	// age == row index; [0, ZoneSize) satisfies only zone 0.
	pruned, total := g.PruneZones(vids, person, 1, 0, int64(vector.ZoneSize-1), &sel)
	if total != 4 {
		t.Fatalf("total zones = %d, want 4", total)
	}
	if pruned != 3 {
		t.Fatalf("pruned zones = %d, want 3", pruned)
	}
	for i := range vids {
		want := i < vector.ZoneSize
		if sel.Get(i) != want {
			t.Fatalf("sel[%d] = %v, want %v", i, sel.Get(i), want)
		}
	}
}
