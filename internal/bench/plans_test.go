package bench_test

import (
	"sync"
	"testing"

	"ges/internal/bench"
	"ges/internal/catalog"
	"ges/internal/driver"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
)

// fusedExpandPlan is the executor-recycling workload: a fused-predicate
// two-hop expansion followed by a batched external-id gather and a count.
// Every structure the arena recycles is on the path — lazy expand batches and
// index vectors, fused-predicate batch scratch, gather staging, f-Tree nodes
// and selection vectors.
func fusedExpandPlan(ds *ldbc.Dataset) plan.Plan {
	h := ds.H
	knows := func(from, to string) *op.Expand {
		return &op.Expand{From: from, To: to, Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person}
	}
	g := knows("f", "g")
	mid := int64(ds.Stats().Persons / 2)
	g.VertexPred = op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(mid)))
	return plan.Plan{
		&op.NodeScan{Var: "p", Label: h.Person}, knows("p", "f"), g,
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
		&op.AggregateProjectTop{
			Aggregate: op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
			Keys:      []op.SortKey{{Col: "n"}},
			Limit:     1,
		},
	}
}

// TestWorkloadPlanParity runs every micro-workload plan through the parity
// sweep: all three engine modes × sealed, unsealed, delta-overlay and
// txn-overlay representations of one LDBC graph, against the volcano
// oracle. Run under -race in CI, it is also the proof that
// arena recycling across queries is invisible in results.
func TestWorkloadPlanParity(t *testing.T) {
	ds, views := paritytest.LDBCViews(t, 0.03, 7)
	plans := []struct {
		name  string
		build func(*ldbc.Dataset) plan.Plan
	}{
		{"GatherScan", bench.GatherScanPlan},
		{"CSRExpand", bench.CSRExpandPlan},
		{"CSRTriangle", bench.CSRTrianglePlan},
		{"FusedExpand", fusedExpandPlan},
	}
	for _, pat := range bench.WCOJPatterns {
		plans = append(plans, struct {
			name  string
			build func(*ldbc.Dataset) plan.Plan
		}{"WCOJ/" + pat.Name, pat.Build})
	}
	for _, p := range plans {
		p := p
		t.Run(p.name, func(t *testing.T) {
			// Every plan ends in a global or top-1 aggregate: one row, so the
			// comparison is ordered.
			paritytest.Sweep(t, views, func() plan.Plan { return p.build(ds) }, true)
		})
	}
}

// recycleAllocCeiling caps steady-state allocations per fused two-hop query
// through one engine. With every put honoured the query allocates 21 times
// (the result block, the aggregate's group table, the fused predicate's
// binding, a few per-operator closures); with no pool behind the arena at
// all it is 105. A regression that stops recycling, or starts allocating per
// row (110 persons scanned, each expanded twice), goes through the ceiling.
// The race detector's sync.Pool drops a share of puts at random, so there the
// count is noise around the ceiling and the test skips.
const recycleAllocCeiling = 40

// poolDropsPuts reports whether this build's sync.Pool loses values between a
// Put and the same goroutine's next Get. A stray false positive (the
// goroutine migrating between the two calls) only skips the ceiling.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestRecycleAllocBudget is the soak half of the recycling contract: a steady
// stream of fused-expand queries through one engine draws its scratch from
// the pool, so allocations per query stay under an absolute ceiling.
func TestRecycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc soak skipped in -short")
	}
	if poolDropsPuts() {
		t.Skip("sync.Pool drops puts in this build (race detector); the ceiling assumes recycling")
	}
	ds, err := driver.SharedDataset(0.1)
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.New(exec.ModeFused)
	p := fusedExpandPlan(ds)
	if _, err := eng.Run(ds.Graph, p); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := eng.Run(ds.Graph, p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: %.0f (ceiling %d)", got, recycleAllocCeiling)
	if got > recycleAllocCeiling {
		t.Fatalf("fused two-hop allocates %.0f times per query, ceiling %d", got, recycleAllocCeiling)
	}
}
