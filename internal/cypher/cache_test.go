package cypher

import (
	"testing"

	"ges/internal/catalog"
	"ges/internal/testgraph"
)

// TestPlanCacheEviction bounds the cache: with capacity 2, a third distinct
// query evicts the least recently used entry and the size never exceeds the
// bound. The queries differ structurally (not just in literals — those
// normalize onto one entry).
func TestPlanCacheEviction(t *testing.T) {
	f := testgraph.New()
	f.Graph.SealCSR()
	c := newCache(f.Graph, 2)
	shapes := []string{
		`MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 100 RETURN COUNT(*) AS friends`,
		`MATCH (p:Person) RETURN COUNT(*) AS persons`,
		`MATCH (p:Person)-[:KNOWS]->(f)-[:KNOWS]->(g) WHERE id(p) = 100 RETURN COUNT(*) AS fof`,
	}
	hit := func(i int) bool {
		t.Helper()
		pr, err := c.Prepare(shapes[i])
		if err != nil {
			t.Fatal(err)
		}
		return pr.Hit
	}
	for i := range shapes {
		if hit(i) {
			t.Fatalf("first prepare of shape %d hit", i)
		}
	}
	if _, misses, size, capacity := c.Stats(); capacity != 2 || size != 2 || misses != 3 {
		t.Fatalf("misses/size/capacity = %d/%d/%d, want 3/2/2 (bounded by capacity)", misses, size, capacity)
	}
	// Shape 0 was evicted (LRU): re-preparing it must miss, while shape 2 hits.
	if !hit(2) {
		t.Fatal("the most recent shape missed")
	}
	if hit(0) {
		t.Fatal("the least recently used shape was not evicted")
	}
	if hits, misses, size, _ := c.Stats(); hits != 1 || misses != 4 || size != 2 {
		t.Fatalf("hits/misses/size = %d/%d/%d after re-insertions, want 1/4/2", hits, misses, size)
	}
}

// TestPrepareKey walks every part of the cache key: a literal-differing
// query shares the skeleton and carries its own values; a literal of another
// kind, a schema change and a reseal's new statistics epoch each miss. The
// graph's first seal publishes statistics, so the skeleton planned without
// them misses too.
func TestPrepareKey(t *testing.T) {
	f := testgraph.New()
	c := NewCache(f.Graph)
	prepare := func(src string) Prepared {
		t.Helper()
		pr, err := c.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	const q = `MATCH (p:Person)-[:KNOWS]->(f) WHERE p.firstName = 'Ada' RETURN id(f)`
	if pr := prepare(q); pr.Hit {
		t.Fatal("the first prepare, without statistics, hit")
	}
	f.Graph.SealCSR()
	if pr := prepare(q); pr.Hit {
		t.Fatal("the first prepare with statistics reused the skeleton planned without them")
	}
	pr := prepare(`MATCH (p:Person)-[:KNOWS]->(f) WHERE p.firstName = 'Bob' RETURN id(f)`)
	if !pr.Hit || len(pr.Params) != 1 || pr.Params[0].S != "Bob" {
		t.Fatalf("literal-differing repeat: hit %v, params %v; want a hit carrying 'Bob'", pr.Hit, pr.Params)
	}
	if pr := prepare(`MATCH (p:Person)-[:KNOWS]->(f) WHERE p.firstName = 7 RETURN id(f)`); pr.Hit {
		t.Fatal("an integer literal reused the skeleton shaped for a string")
	}
	catalog.Must(f.Cat.AddLabel("Place"))
	if pr := prepare(q); pr.Hit {
		t.Fatal("a schema change did not retire the cached skeleton")
	}
	f.Graph.SealCSR()
	if pr := prepare(q); pr.Hit {
		t.Fatal("a reseal's statistics epoch did not retire the cached skeleton")
	}
}
