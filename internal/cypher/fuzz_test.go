package cypher

import (
	"testing"

	"ges/internal/testgraph"
)

// FuzzCompile asserts the frontend never panics: every input either
// compiles (as written, and prepared through the plan cache) or returns an
// error. Run longer with:
//
//	go test -fuzz=FuzzCompile ./internal/cypher
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"MATCH (p:Person) RETURN id(p)",
		"MATCH (p:Person)-[:KNOWS*1..2]->(q) WHERE id(p) = 1 RETURN q.name AS n ORDER BY n DESC LIMIT 3",
		"MATCH (p:Person)<-[:LIKES]-(x) WHERE p.age >= 21 AND NOT p.name = 'x' RETURN COUNT(*)",
		"MATCH (a:Person)-[:KNOWS]-(b) WITH b MATCH (b)-[:KNOWS]->(c) RETURN DISTINCT id(c) SKIP 1 LIMIT 2",
		"MATCH (p:Person) WHERE p.name IN ['a','b'] OR p.name CONTAINS 'q' RETURN p.name",
		"MATCH (p:Person RETURN",
		"RETURN 1",
		"MATCH (p:Person) RETURN SUM(p.age) AS s, MIN(p.age), MAX(p.age), AVG(p.age), COUNT(DISTINCT p.name)",
		"MATCH (p:Person) WHERE (p.age + 1) * 2 / 3 - 4 > 0 RETURN id(p)",
		"MATCH (p:Person)-[k:KNOWS*]->(q) RETURN id(q)",
		"match (p:person) return id(p)",
		"MATCH (p:Person) WHERE p.name STARTS WITH 'a' RETURN p.name ENDS",
		"MATCH (🙂:Person) RETURN id(🙂)",
		"MATCH (p:Person) WHERE id(p) = 99999999999999999999 RETURN id(p)",
		"MATCH (p:Person)-[:KNOWS*0..2]->(g:Person) WHERE id(p) = 1 RETURN id(g)",
		"MATCH (p:Person)-[:KNOWS*0]->(g:Person) RETURN id(g)",
		"MATCH (p:Person)-[:KNOWS*1..99999999999999999999]->(g:Person) RETURN id(g)",
		"MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS*1..2]->(a) RETURN count(*)",
		"MATCH (a:Person)-[:KNOWS*3..2]-(b) MATCH (b)<-[:KNOWS*2]-(a) RETURN id(b)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := testgraph.New().Cat
	sealed := testgraph.New()
	sealed.Graph.SealCSR()
	cache := NewCache(sealed.Graph)
	f.Fuzz(func(t *testing.T, src string) {
		// Must not panic; errors are fine. Prepare adds normalization and
		// the cost-based binder over the sealed graph's statistics.
		_, _ = Compile(src, cat)
		_, _ = cache.Prepare(src)
	})
}
