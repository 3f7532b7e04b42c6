package ges

import (
	"reflect"
	"testing"
)

// TestFirstQuerySealsStorage: the embedded API's implicit seal must reach the
// storage layer — sorted CSR images and a statistics snapshot, not just the
// transaction manager — and the sealed read paths must answer a cyclic query
// over edges loaded in unsorted order exactly as brute force does.
func TestFirstQuerySealsStorage(t *testing.T) {
	db := Open(Fused)
	if err := db.DefineVertexType("Person", Prop{Name: "name", Type: String}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineEdgeType("KNOWS"); err != nil {
		t.Fatal(err)
	}
	const n = 9
	steps := []int64{4, 2, 1}
	for i := int64(0); i < n; i++ {
		if err := db.AddVertex("Person", i, Props{"name": string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		// Descending insertion order, chords included: unsorted in the log.
		for _, d := range steps {
			if err := db.AddEdge("KNOWS", "Person", i, "Person", (i+d)%n, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	knows := func(a, b int64) bool {
		for _, d := range steps {
			if (a+d)%n == b {
				return true
			}
		}
		return false
	}
	var want [][]any
	for a := int64(0); a < n; a++ {
		for b := int64(0); b < n; b++ {
			for c := int64(0); c < n; c++ {
				if knows(a, b) && knows(b, c) && knows(c, a) {
					want = append(want, []any{a, b, c})
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture holds no triangle")
	}

	if db.graph.CSRSealed() || db.graph.Stats() != nil {
		t.Fatal("the graph must still be in the bulk phase before the first Query")
	}
	res, err := db.Query(`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)
		RETURN id(a) AS a, id(b) AS b, id(c) AS c ORDER BY a, b, c`)
	if err != nil {
		t.Fatal(err)
	}
	if !db.graph.CSRSealed() {
		t.Fatal("the first Query must seal the adjacency into CSR images")
	}
	if db.graph.Stats() == nil {
		t.Fatal("the first Query must publish the statistics snapshot")
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("sealed triangle result differs from brute force:\n%v\n%v", res.Rows, want)
	}
}
