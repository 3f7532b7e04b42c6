package ges_test

import (
	"sync"
	"testing"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/plan"
)

// plannerDS is the sealed LDBC dataset shared by the planner tests
// (separate from the benchmark dataset so tests never observe bench-side
// mutations).
var plannerDS struct {
	once sync.Once
	ds   *ldbc.Dataset
	err  error
}

func plannerDataset(t *testing.T) *ldbc.Dataset {
	t.Helper()
	plannerDS.once.Do(func() {
		ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 1})
		if err != nil {
			plannerDS.err = err
			return
		}
		ds.Graph.SealCSR()
		plannerDS.ds = ds
	})
	if plannerDS.err != nil {
		t.Fatal(plannerDS.err)
	}
	return plannerDS.ds
}

// TestEstimateQError bounds the q-error (max of est/actual, actual/est) of
// the cost model's cardinality estimates on LDBC scan, 1-hop, and 2-hop
// patterns. Scans read exact label cardinalities; hops multiply average
// degrees, so the bound loosens with pattern depth.
func TestEstimateQError(t *testing.T) {
	ds := plannerDataset(t)
	cm := plan.NewCostModel(ds.Graph.Stats())
	cases := []struct {
		name string
		src  string
		maxQ float64
	}{
		{"scan", `MATCH (p:Person) RETURN id(p)`, 1.01},
		{"one-hop", `MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(f)`, 1.5},
		{"two-hop", `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN id(c)`, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compiled, err := cypher.CompileWith(c.src, ds.H.Cat, cypher.Options{Cost: cm})
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.New(exec.ModeFused).Run(ds.Graph, compiled.Plan)
			if err != nil {
				t.Fatal(err)
			}
			actual := float64(len(res.Block.Rows))
			est := compiled.Est.Rows
			if actual == 0 || est <= 0 {
				t.Fatalf("degenerate cardinalities: est %g, actual %g", est, actual)
			}
			q := est / actual
			if q < 1 {
				q = 1 / q
			}
			if q > c.maxQ {
				t.Fatalf("q-error %.3f exceeds %.2f (est %.0f, actual %.0f)", q, c.maxQ, est, actual)
			}
			t.Logf("est %.0f actual %.0f q-error %.3f", est, actual, q)
		})
	}
}
