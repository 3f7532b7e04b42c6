package cypher_test

import (
	"fmt"
	"testing"

	"ges/internal/cypher"
	"ges/internal/paritytest"
	"ges/internal/plan"
)

// TestCompiledPlanParity runs compiled queries — the cyclic patterns that
// lower to ExpandIntersect, and the adversarially phrased ladder on which the
// cost model re-anchors and reverses expansions — through the parity sweep:
// every engine mode × 1/2/4/8 workers × the four physical representations of
// one LDBC graph, against the volcano oracle. Each query is planned twice,
// by the syntactic binder (what Options{Cost: nil} runs while no statistics
// are published) and by the cost model: the planner may reshape the plan,
// never the rows, so both must pass the same sweep.
func TestCompiledPlanParity(t *testing.T) {
	ds, views := paritytest.LDBCViews(t, 0.05, 7)
	cm := plan.NewCostModel(ds.Graph.Stats())
	if cm == nil {
		t.Fatal("sealed dataset published no statistics")
	}
	queries := []struct {
		name    string
		ordered bool
		text    string
	}{
		{"triangle", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a)
			RETURN COUNT(*) AS n, SUM(id(c)) AS s`},
		{"diamond", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(d:Person) WHERE id(a) <= 6
			MATCH (a)-[:KNOWS]->(c:Person)-[:KNOWS]->(d)
			RETURN COUNT(*) AS n, SUM(id(c)) AS s`},
		// As written these anchor at the expensive end; the cost model seeks
		// the id()-bound variable and expands in reverse.
		{"anchor-seek", true, `MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE id(b) = 1
			RETURN COUNT(*) AS n, SUM(id(a)) AS s`},
		{"reverse-dir", true, `MATCH (c:Comment)-[:HAS_CREATOR]->(p:Person) WHERE id(p) = 1
			RETURN COUNT(*) AS n, SUM(id(c)) AS s`},
		{"anchor-2hop", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(c) = 1
			RETURN COUNT(*) AS n, SUM(id(a)) AS s`},
		{"filter-order-limit", true, `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE f.gender = 'female'
			RETURN id(p), id(f), f.firstName AS name ORDER BY name, id(f), id(p) LIMIT 40`},
		{"group-by", false, `MATCH (p:Person)-[:KNOWS]->(f:Person)
			RETURN f.browserUsed AS b, COUNT(*) AS n`},
		// Aggregates on the f-Tree: COUNT(*) at the root, arguments and keys on
		// one node weighted, keys and arguments on different nodes streamed.
		{"count-two-hop", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
			RETURN COUNT(*) AS n`},
		{"count-var-length", true, `MATCH (a:Person)-[:KNOWS*1..2]->(c:Person)
			RETURN COUNT(*) AS n`},
		{"sum-leaf", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
			RETURN SUM(id(c)) AS s`},
		{"group-by-middle", false, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(a) <= 20
			RETURN id(b) AS b, COUNT(*) AS n, SUM(id(c)) AS s`},
		{"min-max-avg-distinct", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
			RETURN MIN(id(c)) AS lo, MAX(id(c)) AS hi, AVG(id(c)) AS mean, COUNT(DISTINCT id(c)) AS d`},
		{"empty-input", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(a) < 0
			RETURN COUNT(*) AS n, MIN(id(c)) AS lo, SUM(id(c)) AS s`},
	}
	for _, q := range queries {
		for _, planner := range []struct {
			name string
			cost *plan.CostModel
		}{{"syntactic", nil}, {"cost", cm}} {
			q, planner := q, planner
			t.Run(q.name+"/"+planner.name, func(t *testing.T) {
				c, err := cypher.CompileWith(q.text, ds.H.Cat, cypher.Options{Cost: planner.cost})
				if err != nil {
					t.Fatal(err)
				}
				if c.Est.CostBased != (planner.cost != nil) {
					t.Fatalf("Est.CostBased = %v with cost model %v", c.Est.CostBased, planner.cost != nil)
				}
				paritytest.Sweep(t, views, func() plan.Plan { return c.Plan }, q.ordered)
			})
		}
	}
	// LIMIT without ORDER BY keeps the first tuples of the enumeration, which
	// follows each view's neighbor order, so each view is checked on its own.
	for _, q := range []struct {
		name string
		rows int
		text string
	}{
		{"limit-zero", 0, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(a) AS a, id(b) AS b LIMIT 0`},
		{"limit-one", 1, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(b) AS b, id(a) AS a LIMIT 1`},
		{"skip-past-end", 0, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(a) AS a SKIP 1000000 LIMIT 3`},
	} {
		for _, cost := range []*plan.CostModel{nil, cm} {
			c, err := cypher.CompileWith(q.text, ds.H.Cat, cypher.Options{Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/cost=%v", q.name, cost != nil), func(t *testing.T) {
				paritytest.SweepViews(t, views, func() plan.Plan { return c.Plan }, q.rows)
			})
		}
	}
}
