package ges

import (
	"testing"

	"ges/internal/storage"
)

// TestQueriesRecycleThroughOnePool: every Query draws its arena from the
// DB's one memory pool, so a later query reuses what an earlier one released.
func TestQueriesRecycleThroughOnePool(t *testing.T) {
	db := Open(Fused)
	if err := db.DefineVertexType("Person", Prop{Name: "age", Type: Int64}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineEdgeType("KNOWS"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := db.AddVertex("Person", i, Props{"age": i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := db.AddEdge("KNOWS", "Person", i, "Person", (i+1)%20, nil); err != nil {
			t.Fatal(err)
		}
	}
	const q = `MATCH (p:Person)-[:KNOWS]->(f) WHERE p.age < 10 RETURN id(f), f.age`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	first := db.pool.DetailedStats()
	if first.Gets == 0 {
		t.Fatal("the first query drew nothing from the pool")
	}
	// sync.Pool drops some puts under -race: query again until an arena
	// comes back.
	var st storage.PoolStats
	for try := 0; try < 32; try++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if st = db.pool.DetailedStats(); st.Arenas.Hits > 0 {
			break
		}
	}
	if st.Hits <= first.Hits || st.Arenas.Hits == 0 {
		t.Fatalf("later queries recycled nothing: hits %d -> %d, arena hits %d",
			first.Hits, st.Hits, st.Arenas.Hits)
	}
}
