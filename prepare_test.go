package ges

import (
	"fmt"
	"strings"
	"testing"

	"ges/internal/cypher"
)

// TestExplainShowsThePlanQueryRuns: a query written from a scan of f is
// anchored by cost at p's id() seek. Explain prints that cost plan, and
// Query runs the same skeleton from the plan cache; a literal-differing
// repeat is a cache hit that returns its own rows.
func TestExplainShowsThePlanQueryRuns(t *testing.T) {
	db := Open(Fused)
	if err := db.DefineVertexType("Person", Prop{Name: "name", Type: String}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineEdgeType("KNOWS"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := int64(0); i < n; i++ {
		if err := db.AddVertex("Person", i, Props{"name": fmt.Sprint("p", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		for _, d := range []int64{1, 2} {
			if err := db.AddEdge("KNOWS", "Person", i, "Person", (i+d)%n, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	const src = `MATCH (f:Person)<-[:KNOWS]-(p:Person) WHERE id(p) = %d RETURN id(f) ORDER BY id(f)`

	// Written as is, the pattern scans f.
	asWritten, err := cypher.Compile(fmt.Sprintf(src, 7), db.cat)
	if err != nil {
		t.Fatal(err)
	}
	if s := asWritten.String(); !strings.Contains(s, "NodeScan") {
		t.Fatalf("the as-written plan does not scan:\n%s", s)
	}
	explained, err := db.Explain(fmt.Sprintf(src, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explained, "SeekExpand(fused)") || strings.Contains(explained, "NodeScan") {
		t.Fatalf("Explain does not show the cost plan's fused id() seek:\n%s", explained)
	}
	for _, id := range []int64{7, 39} {
		res, err := db.Query(fmt.Sprintf(src, id))
		if err != nil {
			t.Fatal(err)
		}
		want := [][]any{{(id + 1) % n}, {(id + 2) % n}}
		if want[0][0].(int64) > want[1][0].(int64) {
			want[0], want[1] = want[1], want[0]
		}
		if fmt.Sprint(res.Rows) != fmt.Sprint(want) {
			t.Fatalf("id %d: rows %v, want %v", id, res.Rows, want)
		}
	}
	// Explain compiled the skeleton; both queries ran it from the cache.
	if hits, misses, size, _ := db.cache.Stats(); hits != 2 || misses != 1 || size != 1 {
		t.Fatalf("plan cache hits/misses/size = %d/%d/%d, want 2/1/1", hits, misses, size)
	}
}
