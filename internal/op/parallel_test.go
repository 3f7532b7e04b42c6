package op_test

import (
	"fmt"
	"testing"

	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
)

// TestParallelWorkloadQueriesAgree runs the heavier IC queries with
// parallelism enabled and compares against sequential execution, row for
// row in order, under GES_f and under GES_f*, whose per-group leaves and
// unsorted groups (IC3, IC5, IC10) must not depend on the worker count
// either.
func TestParallelWorkloadQueriesAgree(t *testing.T) {
	ds, err := driver.SharedDataset(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []exec.Mode{exec.ModeFactorized, exec.ModeFused} {
		t.Run(mode.String(), func(t *testing.T) { parallelAgrees(t, ds, mode) })
	}
}

func parallelAgrees(t *testing.T, ds *ldbc.Dataset, mode exec.Mode) {
	seq := queries.NewRunner(ds, mode, nil)
	parEngine := exec.New(mode)
	parEngine.Parallel = 4
	par := queries.NewRunnerWith(ds, parEngine, nil)

	for _, name := range []string{"IC2", "IC3", "IC5", "IC6", "IC9", "IC10", "IC12"} {
		q, errq := queries.ByName(name)
		if errq != nil {
			t.Fatal(errq)
		}
		pgA := ds.NewParamGen(55)
		pgB := ds.NewParamGen(55)
		for trial := 0; trial < 5; trial++ {
			a, _, err := seq.Execute(q, q.GenParams(ds, pgA))
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := par.Execute(q, q.GenParams(ds, pgB))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
				t.Fatalf("%s trial %d: parallel diverges (rows compared in order)", name, trial)
			}
		}
	}
}

func TestShardBoundsViaBehavior(t *testing.T) {
	// Degenerate sizes: empty scan and tiny blocks must not break parallel
	// mode (they fall below the threshold, but exercise the guard).
	f := newEmptyPersonGraph(t)
	eng := exec.New(exec.ModeFactorized)
	eng.Parallel = 8
	res, err := eng.Run(f, plan.Plan{
		&op.NodeScan{Var: "p", Label: 0},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Block.NumRows() != 0 {
		t.Fatal("phantom rows")
	}
}

func newEmptyPersonGraph(t *testing.T) *storage.Graph {
	t.Helper()
	cat := catalogNew(t)
	return storage.NewGraph(cat)
}

func catalogNew(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.AddLabel("Person"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEdgeType("KNOWS"); err != nil {
		t.Fatal(err)
	}
	return c
}
