package ges

import (
	"reflect"
	"testing"

	"ges/internal/cypher"
	"ges/internal/exec"
)

// TestFirstQuerySealsStorage: the embedded API's implicit seal must reach the
// storage layer — sorted CSR images and a statistics snapshot, not just the
// transaction manager — and the sealed read paths (merge intersection instead
// of the bulk phase's hash sets) must answer a cyclic query exactly as the
// bulk-phase graph does.
func TestFirstQuerySealsStorage(t *testing.T) {
	db := Open(Fused)
	if err := db.DefineVertexType("Person", Prop{Name: "name", Type: String}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineEdgeType("KNOWS"); err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := int64(0); i < n; i++ {
		if err := db.AddVertex("Person", i, Props{"name": string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		// Descending insertion order, chords included: unsorted in the slots.
		for _, d := range []int64{4, 2, 1} {
			if err := db.AddEdge("KNOWS", "Person", i, "Person", (i+d)%n, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	const triangle = `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)
		RETURN id(a) AS a, id(b) AS b, id(c) AS c ORDER BY a, b, c`

	p, err := cypher.Compile(triangle, db.cat)
	if err != nil {
		t.Fatal(err)
	}
	if db.graph.CSRSealed() || db.graph.Stats() != nil {
		t.Fatal("the graph must still be in the bulk phase before the first Query")
	}
	bulk, err := exec.New(db.mode).Run(db.graph, p)
	if err != nil {
		t.Fatal(err)
	}
	want := blockRows(bulk.Block)
	if len(want) == 0 {
		t.Fatal("fixture holds no triangle")
	}

	res, err := db.Query(triangle)
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
		t.Fatalf("sealed triangle result differs from the bulk-phase one:\n%v\n%v", res.Rows, want)
	}
}
