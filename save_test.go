package ges

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// TestSaveLoadAfterTransactionalWrites: vertices and edges committed after
// sealing are graph rows like the bulk load's, so Save writes them and Load
// reads them back — renumbered densely past the VID an aborted transaction
// left unused — and the reloaded database answers every query, and holds
// every external id, as the saved one did.
func TestSaveLoadAfterTransactionalWrites(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	db := Open(Fused)
	must(db.DefineVertexType("Person", Prop{Name: "name", Type: String}, Prop{Name: "age", Type: Int64}))
	must(db.DefineVertexType("Post", Prop{Name: "title", Type: String}, Prop{Name: "score", Type: Int64}))
	must(db.DefineEdgeType("KNOWS"))
	must(db.DefineEdgeType("WROTE"))
	for _, id := range []int64{1, 2, 3} {
		must(db.AddVertex("Person", id, Props{"name": string(rune('a' + id)), "age": 20 + id}))
	}
	must(db.AddVertex("Post", 1, Props{"title": "base", "score": 10}))
	must(db.AddEdge("KNOWS", "Person", 1, "Person", 2, nil))
	must(db.AddEdge("WROTE", "Person", 2, "Post", 1, nil))
	db.Seal()

	// A transaction that allocates a VID and aborts leaves a hole past the
	// base; the vertices committed after it sit beyond the hole.
	person, _ := db.cat.Label("Person")
	tx := db.mgr.Begin(nil)
	hole, err := tx.AddVertex(person, 50, vector.String_("ghost"), vector.Int64(99))
	must(err)
	tx.Abort()
	must(db.AddVertex("Person", 4, Props{"name": "eve", "age": 19}))
	must(db.AddVertex("Person", 5, Props{"name": "fay", "age": 33}))
	must(db.AddVertex("Post", 2, Props{"title": "new", "score": 70}))
	for _, e := range [][2]int64{{4, 1}, {1, 5}, {5, 4}, {3, 4}} {
		must(db.AddEdge("KNOWS", "Person", e[0], "Person", e[1], nil))
	}
	must(db.AddEdge("WROTE", "Person", 5, "Post", 2, nil))
	must(db.AddEdge("WROTE", "Person", 4, "Post", 1, nil))
	if db.graph.HasVertex(hole) || db.graph.NumVertices() != 7 {
		t.Fatalf("hole %d present %v, %d vertices", hole, db.graph.HasVertex(hole), db.graph.NumVertices())
	}

	queries := []string{
		`MATCH (p:Person) RETURN id(p) AS pid, p.name AS name, p.age AS age ORDER BY pid`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(p) AS pid, id(f) AS fid, f.name AS name ORDER BY pid, fid`,
		`MATCH (p:Person)-[:WROTE]->(m:Post) RETURN id(p) AS pid, id(m) AS mid, m.title AS title, m.score AS score ORDER BY mid, pid`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:WROTE]->(m:Post) WHERE m.score > 50 RETURN id(p) AS pid, m.title AS title`,
	}
	answers := func(db *DB) [][][]any {
		var out [][][]any
		for _, q := range queries {
			res, err := db.Query(q)
			must(err)
			out = append(out, res.Rows)
		}
		return out
	}
	extIDs := func(db *DB) [][]int64 {
		var out [][]int64
		for l := 0; l < db.cat.NumLabels(); l++ {
			var ids []int64
			for _, v := range db.graph.ScanLabel(catalog.LabelID(l)) {
				ids = append(ids, db.graph.ExtID(v))
			}
			slices.Sort(ids)
			out = append(out, ids)
		}
		return out
	}
	want, wantIDs := answers(db), extIDs(db)
	if len(want[0]) != 5 || len(want[3]) != 1 {
		t.Fatalf("fixture answers %v", want)
	}

	var buf bytes.Buffer
	must(db.Save(&buf))
	db2, err := Load(&buf, Fused)
	must(err)
	if got := answers(db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded answers %v, want %v", got, want)
	}
	if got := extIDs(db2); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("reloaded ext ids %v, want %v", got, wantIDs)
	}
	if n := db2.graph.NumVertices(); n != 7 {
		t.Fatalf("reloaded %d vertices, want 7", n)
	}
}

// TestWriteAfterSaveIsATransaction: Save seals the database the way the first
// query does, so a write after it commits as a transaction rather than a bulk
// write into a sealed graph, and the next query sees it.
func TestWriteAfterSaveIsATransaction(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	db := Open(Fused)
	must(db.DefineVertexType("Person", Prop{Name: "name", Type: String}))
	must(db.DefineEdgeType("KNOWS"))
	for _, id := range []int64{1, 2, 3} {
		must(db.AddVertex("Person", id, Props{"name": string(rune('a' + id))}))
	}
	must(db.AddEdge("KNOWS", "Person", 1, "Person", 2, nil))
	var buf bytes.Buffer
	must(db.Save(&buf))
	must(db.AddEdge("KNOWS", "Person", 1, "Person", 3, nil))
	must(db.AddVertex("Person", 4, Props{"name": "eve"}))
	must(db.AddEdge("KNOWS", "Person", 4, "Person", 1, nil))
	res, err := db.Query(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(p) AS pid, id(f) AS fid ORDER BY pid, fid`)
	must(err)
	if want := [][]any{{int64(1), int64(2)}, {int64(1), int64(3)}, {int64(4), int64(1)}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows after writes past Save = %v, want %v", res.Rows, want)
	}
}
