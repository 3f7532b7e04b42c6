package cypher_test

import (
	"fmt"
	"testing"

	"ges/internal/cypher"
	"ges/internal/paritytest"
	"ges/internal/plan"
)

// TestCompiledPlanParity runs compiled queries — the cyclic patterns that
// lower to ExpandIntersect or close a var-length edge with ExpandInto, and
// the adversarially phrased ladder on which the cost model re-anchors and
// reverses expansions — through the parity sweep: every engine mode × the
// four physical representations of one LDBC graph,
// against the volcano oracle. Each query is planned twice, without
// statistics ("syntactic": the as-written plan Options{Cost: nil} binds) and
// with them ("cost"): the planner may reshape the plan, never the rows, so
// both must pass the same sweep.
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
		// A var-length edge between bound variables: the hop-bounded
		// ExpandInto, a BFS from the root (forward) or from the closing
		// end's root (reversed).
		{"cyclic-var-length", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS*1..2]->(a) WHERE id(a) <= 40
			RETURN COUNT(*) AS n, SUM(id(b)) AS s`},
		{"cyclic-exactly-2", true, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(a) <= 20
			MATCH (a)-[:KNOWS*2..2]->(c)
			RETURN COUNT(*) AS n, SUM(id(c)) AS s`},
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
				paritytest.Sweep(t, views, func() plan.Plan { return c.Plan }, q.ordered)
			})
		}
	}
	// LIMIT without ORDER BY keeps the first tuples of the enumeration, which
	// follows each view's neighbor order, so each view is checked on its own.
	// So does an ORDER BY LIMIT that cuts through a group of equal keys: the
	// group's first tuples in input order are kept, in that order.
	for _, q := range []struct {
		name    string
		ordered bool
		rows    int
		text    string
	}{
		{"limit-zero", false, 0, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(a) AS a, id(b) AS b LIMIT 0`},
		{"limit-one", false, 1, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(b) AS b, id(a) AS a LIMIT 1`},
		{"skip-past-end", false, 0, `MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN id(a) AS a SKIP 1000000 LIMIT 3`},
		{"order-ties-single-node", true, 10, `MATCH (a:Person) RETURN id(a) AS a, a.gender AS g ORDER BY g LIMIT 10`},
		{"order-ties-multi-node", true, 25, `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
			RETURN id(c) AS c, id(a) AS a, b.gender AS g, a.browserUsed AS br ORDER BY g DESC, br LIMIT 25`},
		{"order-ties-aggregate-top-1", true, 1, `MATCH (a:Person)-[:KNOWS]->(b:Person)
			RETURN id(b) AS b, COUNT(*) AS n ORDER BY n DESC LIMIT 1`},
		{"order-ties-aggregate-top-k", true, 7, `MATCH (a:Person)-[:KNOWS]->(b:Person)
			RETURN id(b) AS b, COUNT(*) AS n ORDER BY n DESC LIMIT 7`},
		{"order-ties-aggregate-all", true, -1, `MATCH (a:Person)-[:KNOWS]->(b:Person)
			RETURN id(b) AS b, COUNT(*) AS n ORDER BY n DESC`},
	} {
		for _, cost := range []*plan.CostModel{nil, cm} {
			c, err := cypher.CompileWith(q.text, ds.H.Cat, cypher.Options{Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/cost=%v", q.name, cost != nil), func(t *testing.T) {
				paritytest.SweepViews(t, views, func() plan.Plan { return c.Plan }, q.ordered, q.rows)
			})
		}
	}
}
