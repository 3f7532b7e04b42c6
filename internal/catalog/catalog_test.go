package catalog

import (
	"sync"
	"testing"

	"ges/internal/vector"
)

func TestLabelRegistration(t *testing.T) {
	c := New()
	p, err := c.AddLabel("Person",
		PropDef{Name: "name", Kind: vector.KindString},
		PropDef{Name: "age", Kind: vector.KindInt64})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.AddLabel("Post")
	if err != nil {
		t.Fatal(err)
	}
	if p == q {
		t.Fatal("distinct labels share an id")
	}
	if got, ok := c.Label("Person"); !ok || got != p {
		t.Fatalf("Label lookup = %d, %v", got, ok)
	}
	if _, ok := c.Label("Ghost"); ok {
		t.Fatal("phantom label")
	}
	if c.LabelName(p) != "Person" {
		t.Fatalf("LabelName = %q", c.LabelName(p))
	}
	if c.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d", c.NumLabels())
	}
	if _, err := c.AddLabel("Person"); err == nil {
		t.Fatal("duplicate label must error")
	}
}

func TestPropResolution(t *testing.T) {
	c := New()
	p, _ := c.AddLabel("Person",
		PropDef{Name: "name", Kind: vector.KindString},
		PropDef{Name: "age", Kind: vector.KindInt64})
	if got, n := c.PropLabels("age"); n != 1 || len(got) != 1 || got[0] != (LabelProp{Label: p, Prop: 1, Kind: vector.KindInt64}) {
		t.Fatalf("PropLabels(age) = %v, %d labels", got, n)
	}
	if got, _ := c.PropLabels("ghost"); len(got) != 0 {
		t.Fatalf("phantom property: %v", got)
	}
	if got := c.LabelProps(p); len(got) != 2 || got[0].Name != "name" {
		t.Fatalf("LabelProps = %v", got)
	}
	// Across labels: every definer, in label order, with its own pid and kind.
	c.AddLabel("Tag")
	post, _ := c.AddLabel("Post", PropDef{Name: "len", Kind: vector.KindInt64}, PropDef{Name: "name", Kind: vector.KindDate})
	got, n := c.PropLabels("name")
	want := []LabelProp{{Label: p, Prop: 0, Kind: vector.KindString}, {Label: post, Prop: 1, Kind: vector.KindDate}}
	if n != 3 || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("PropLabels(name) = %v, %d labels; want %v, 3", got, n, want)
	}
}

func TestEdgeTypeRegistration(t *testing.T) {
	c := New()
	k, err := c.AddEdgeType("KNOWS", PropDef{Name: "since", Kind: vector.KindDate})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.EdgeType("KNOWS"); !ok || got != k {
		t.Fatal("EdgeType lookup failed")
	}
	if c.EdgeTypeName(k) != "KNOWS" {
		t.Fatalf("EdgeTypeName = %q", c.EdgeTypeName(k))
	}
	pid, kind, ok := c.EdgePropIndex(k, "since")
	if !ok || pid != 0 || kind != vector.KindDate {
		t.Fatalf("EdgePropIndex = %d %s %v", pid, kind, ok)
	}
	if _, _, ok := c.EdgePropIndex(k, "nope"); ok {
		t.Fatal("phantom edge property")
	}
	if c.NumEdgeTypes() != 1 {
		t.Fatalf("NumEdgeTypes = %d", c.NumEdgeTypes())
	}
	if _, err := c.AddEdgeType("KNOWS"); err == nil {
		t.Fatal("duplicate edge type must error")
	}
}

func TestOutOfRangeNames(t *testing.T) {
	c := New()
	if got := c.LabelName(99); got == "" {
		t.Fatal("out-of-range label name should render something")
	}
	if got := c.EdgeTypeName(99); got == "" {
		t.Fatal("out-of-range edge type name should render something")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Out.Reverse() != In || In.Reverse() != Out || Both.Reverse() != Both {
		t.Fatal("Reverse wrong")
	}
	if Out.String() != "->" || In.String() != "<-" || Both.String() != "--" {
		t.Fatal("direction rendering wrong")
	}
}

func TestConcurrentReads(t *testing.T) {
	c := New()
	p, _ := c.AddLabel("Person", PropDef{Name: "x", Kind: vector.KindInt64})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if _, ok := c.Label("Person"); !ok {
					t.Error("lost label")
					return
				}
				c.LabelProps(p)
				c.LabelName(p)
			}
		}()
	}
	wg.Wait()
}

// TestClusterKey declares a label's clustering key: an integer or date
// property of that label; another kind, another label's or a missing
// property is refused, and a label without one reports none.
func TestClusterKey(t *testing.T) {
	c := New()
	m := Must(c.AddLabel("M", PropDef{Name: "text", Kind: vector.KindString}, PropDef{Name: "day", Kind: vector.KindDate}))
	p := Must(c.AddLabel("P", PropDef{Name: "age", Kind: vector.KindInt64}))
	if _, ok := c.ClusterKey(m); ok {
		t.Fatal("a new label has a clustering key")
	}
	v := c.Version()
	if err := c.SetClusterKey(m, "day"); err != nil {
		t.Fatal(err)
	}
	if pid, ok := c.ClusterKey(m); !ok || pid != 1 || c.Version() == v {
		t.Fatalf("ClusterKey(M) = %d, %v; version %d → %d", pid, ok, v, c.Version())
	}
	for _, bad := range []struct {
		label LabelID
		prop  string
	}{{m, "text"}, {m, "age"}, {p, "day"}, {LabelID(9), "day"}} {
		if err := c.SetClusterKey(bad.label, bad.prop); err == nil {
			t.Fatalf("SetClusterKey(%d, %q) accepted", bad.label, bad.prop)
		}
	}
	if _, ok := c.ClusterKey(p); ok {
		t.Fatal("a refused key was set")
	}
}
