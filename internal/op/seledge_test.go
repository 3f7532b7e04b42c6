package op_test

import (
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/txn"
	"ges/internal/vector"
	"ges/internal/volcano"
)

// These tests pin down the selection-vector edge cases the runtime assertion
// layer (-tags gesassert) and geslint's R3 rule guard: an all-cleared
// selection, a range filter clearing every selection word at once, and a genuinely
// empty (0-row) f-Block — each flowing through Expand, Projection and
// Aggregate without panics and with identical results across engine modes.

// TestEmptySelectionFlowsThroughPlan clears every root selection bit with an
// unsatisfiable predicate and pushes the all-cleared tree through Expand and
// Projection. Downstream operators must treat the block as logically empty
// even though its columns still hold rows.
func TestEmptySelectionFlowsThroughPlan(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "creationDate", As: "cd"}}},
			// No person predates day 0: the filter clears the whole selection
			// vector but leaves the 10-row block in place.
			&op.Filter{Pred: expr.Lt(expr.C("cd"), expr.LDate(0))},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
		}
	}
	fb := assertModesAgree(t, f, build)
	if fb.NumRows() != 0 {
		t.Fatalf("all-cleared selection produced %d rows, want 0", fb.NumRows())
	}
	// A global aggregate over the empty stream must still emit its single
	// group row, with count 0, in every mode.
	withAgg := func() plan.Plan {
		return append(build(), &op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}})
	}
	agg := assertModesAgree(t, f, withAgg)
	if agg.NumRows() != 1 || agg.Rows[0][0].I != 0 {
		t.Fatalf("global count over empty selection = %v, want one row of 0", agg.Rows)
	}
}

// bigPersonGraph builds a Person-only graph large enough to span many
// selection words: n persons with creationDate = i, plus knows edges i→i+1
// among the first 100 so expansion over the graph is non-trivial.
func bigPersonGraph(t *testing.T, n int) (*storage.Graph, *testgraph.Schema) {
	t.Helper()
	cat := catalog.New()
	s := testgraph.NewSchema(cat)
	g := storage.NewGraph(cat)
	vids := make([]vector.VID, n)
	for i := 0; i < n; i++ {
		v, err := g.AddVertex(s.Person, int64(i),
			vector.String_("fn"), vector.String_("ln"), vector.Date(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		vids[i] = v
	}
	for i := 0; i+1 < 100; i++ {
		if err := g.AddEdge(s.Knows, vids[i], vids[i+1], vector.Date(0)); err != nil {
			t.Fatal(err)
		}
	}
	return g, s
}

// TestRangeFilterMatchesOracle drives range predicates through the range
// kernel over a scan's shared storage column: an unsatisfiable range clears
// every selection word, and the all-cleared block must then expand and
// aggregate to zero; a mid-range threshold keeps exactly the oracle's rows.
func TestRangeFilterMatchesOracle(t *testing.T) {
	const n = 3*2048 + 123 // the last selection word ragged
	g, s := bigPersonGraph(t, n)
	build := func(threshold int64) plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: s.Person},
			// Scan-ordered VIDs share the storage column zero-copy, so the
			// range kernel reads the storage column itself.
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "creationDate", As: "cd"}}},
			&op.Filter{Pred: expr.Lt(expr.C("cd"), expr.LDate(threshold))},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		}
	}
	count := func(e *exec.Engine, threshold int64) int64 {
		t.Helper()
		res, err := e.Run(g, build(threshold))
		if err != nil {
			t.Fatal(err)
		}
		if res.Block.NumRows() != 1 {
			t.Fatalf("aggregate emitted %d rows, want 1", res.Block.NumRows())
		}
		return res.Block.Rows[0][0].I
	}

	// creationDate is never negative: no row is in range and nothing
	// survives.
	if got := count(exec.New(exec.ModeFactorized), 0); got != 0 {
		t.Fatalf("count after an impossible range = %d, want 0", got)
	}

	// The oracle evaluates the predicate row by row; the kernel must agree
	// with it.
	const mid = int64(2048 + 50) // knows edges exist only below row 100
	oracle, err := volcano.New().Run(g, build(mid))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Block.Rows[0][0].I
	if want == 0 {
		t.Fatal("mid-range threshold should keep some edges")
	}
	if got := count(exec.New(exec.ModeFactorized), mid); got != want {
		t.Fatalf("range-filtered count = %d, oracle = %d", got, want)
	}
}

// TestZeroRowFBlockThroughOperators starts from a vertex with no outgoing
// likes, producing a genuinely 0-row child f-Block (not merely a cleared
// selection), and keeps operating on it: a second Expand, property
// projection, and a global Aggregate must all pass through without panics.
func TestZeroRowFBlockThroughOperators(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			// p3 (ext 103) likes nothing, so the "m" block has zero rows.
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 103},
			&op.Expand{From: "p", To: "m", Et: s.Likes, Dir: catalog.Out, DstLabel: s.Post},
			&op.Expand{From: "m", To: "a", Et: s.HasCreator, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "a", Prop: "firstName", As: "an"}}},
		}
	}
	fb := assertModesAgree(t, f, build)
	if fb.NumRows() != 0 {
		t.Fatalf("0-row f-Block produced %d rows, want 0", fb.NumRows())
	}
	withAgg := func() plan.Plan {
		return append(build(), &op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}})
	}
	agg := assertModesAgree(t, f, withAgg)
	if agg.NumRows() != 1 || agg.Rows[0][0].I != 0 {
		t.Fatalf("global count over 0-row f-Block = %v, want one row of 0", agg.Rows)
	}
}

// TestFusedRangePredUnderOverlays: the fused range predicate must keep a
// committed row that matches. A hub's neighbor run spans every base row; the
// fused range predicate rules the low rows out; a transaction creates a
// person in range — a tail row, past the base columns — and befriends it from
// the hub, and another adds an unrelated edge.
func TestFusedRangePredUnderOverlays(t *testing.T) {
	const n = 3*2048 + 123
	g, s := bigPersonGraph(t, n) // VID i has creationDate i
	hub, moved := vector.VID(0), vector.VID(97)
	for j := int(moved); j < n; j += 97 {
		if err := g.AddEdge(s.Knows, hub, vector.VID(j), vector.Date(0)); err != nil {
			t.Fatal(err)
		}
	}
	g.SealCSR()
	const threshold = int64(2 * 2048)
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: s.Person},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
				VertexPred: op.VertexPropPred(expr.Ge(expr.C("creationDate"), expr.LDate(threshold)))},
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		}
	}
	count := func(view storage.View) int64 {
		t.Helper()
		res, err := exec.New(exec.ModeFactorized).Run(view, build())
		if err != nil {
			t.Fatal(err)
		}
		return res.Block.Rows[0][0].I
	}
	base := count(g)
	if base == 0 {
		t.Fatal("fixture keeps no base neighbor")
	}

	m := txn.NewManager(g)
	tx := m.Begin([]vector.VID{hub})
	nv, err := tx.AddVertex(s.Person, n, vector.String_("fn"), vector.String_("ln"), vector.Date(threshold+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddEdge(s.Knows, hub, nv, vector.Date(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = m.Begin([]vector.VID{5, 6})
	if err := tx.AddEdge(s.Knows, 5, 6, vector.Date(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	got := count(snap)
	if got != base+1 {
		t.Fatalf("count on the snapshot = %d, base graph %d: the created neighbor matches and must be kept", got, base)
	}
	oracle, err := volcano.New().Run(snap, build())
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Block.Rows[0][0].I; got != want {
		t.Fatalf("count = %d, oracle = %d", got, want)
	}
}
