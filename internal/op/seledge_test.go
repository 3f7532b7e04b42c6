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
// selection, zone-map pruning clearing every zone at once, and a genuinely
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

// bigPersonGraph builds a Person-only graph large enough to span several
// zone-map zones: n persons with creationDate = i, plus knows edges i→i+1
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

// TestZoneMapPrunesAllZones drives an unsatisfiable range predicate through
// the zone-mapped filter fast path: every zone is ruled out by its min/max
// summary, the selection vector is cleared in word-ranged sweeps, and the
// all-cleared block must then expand and aggregate to zero.
func TestZoneMapPrunesAllZones(t *testing.T) {
	const n = 3*vector.ZoneSize + 123 // several full zones plus a ragged tail
	g, s := bigPersonGraph(t, n)
	build := func(threshold int64) plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: s.Person},
			// Scan-ordered VIDs share the storage column zero-copy, so the
			// projected column carries the storage zone map into the filter.
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "creationDate", As: "cd"}}},
			&op.Filter{Pred: expr.Lt(expr.C("cd"), expr.LDate(threshold))},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		}
	}
	count := func(e *exec.Engine, threshold int64) (int64, *exec.Result) {
		t.Helper()
		res, err := e.Run(g, build(threshold))
		if err != nil {
			t.Fatal(err)
		}
		if res.Block.NumRows() != 1 {
			t.Fatalf("aggregate emitted %d rows, want 1", res.Block.NumRows())
		}
		return res.Block.Rows[0][0].I, res
	}

	// creationDate is never negative: every zone's [min,max] misses the
	// predicate range, so all zones prune and nothing survives.
	e := exec.New(exec.ModeFactorized)
	got, res := count(e, 0)
	if got != 0 {
		t.Fatalf("count after all-zone prune = %d, want 0", got)
	}
	if res.ZonesTotal == 0 {
		t.Fatal("filter did not take the zone-map path (ZonesTotal = 0)")
	}
	if res.ZonesPruned != res.ZonesTotal {
		t.Fatalf("pruned %d of %d zones, want all", res.ZonesPruned, res.ZonesTotal)
	}

	// A mid-range threshold prunes a proper subset of zones; the oracle (which
	// reads no zone map) and the parallel runtime must agree on the count.
	const mid = int64(vector.ZoneSize + 50) // knows edges exist only below row 100
	oracle, err := volcano.New().Run(g, build(mid))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Block.Rows[0][0].I
	if want == 0 {
		t.Fatal("mid-range threshold should keep some edges")
	}
	gotMid, resMid := count(exec.New(exec.ModeFactorized), mid)
	if gotMid != want {
		t.Fatalf("zone-mapped count = %d, oracle = %d", gotMid, want)
	}
	if resMid.ZonesPruned == 0 || resMid.ZonesPruned >= resMid.ZonesTotal {
		t.Fatalf("mid-range prune = %d of %d zones, want a proper nonzero subset",
			resMid.ZonesPruned, resMid.ZonesTotal)
	}
	par := exec.New(exec.ModeFactorized)
	par.Parallel = 4
	if gotPar, _ := count(par, mid); gotPar != want {
		t.Fatalf("parallel zone-mapped count = %d, want %d", gotPar, want)
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

// TestFusedPredPrunesZonesUnderOverlays: committed transaction overlays must
// not switch zone pruning off for the rows they do not touch, and a pruned
// zone must not swallow a row whose committed value now matches. A hub's
// neighbor run spans every zone; the fused range predicate rules the low
// zones out; one neighbor in a ruled-out zone is moved into range by a
// transaction, another vertex gets an unrelated overlay.
func TestFusedPredPrunesZonesUnderOverlays(t *testing.T) {
	const n = 3*vector.ZoneSize + 123
	g, s := bigPersonGraph(t, n) // VID i has creationDate i
	hub, moved := vector.VID(0), vector.VID(97)
	for j := int(moved); j < n; j += 97 {
		if err := g.AddEdge(s.Knows, hub, vector.VID(j), vector.Date(0)); err != nil {
			t.Fatal(err)
		}
	}
	g.SealCSR()
	const threshold = int64(2 * vector.ZoneSize)
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "p", Label: s.Person},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
				VertexPred: op.VertexPropPred(expr.Ge(expr.C("creationDate"), expr.LDate(threshold)))},
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		}
	}
	count := func(view storage.View) (int64, *exec.Result) {
		t.Helper()
		res, err := exec.New(exec.ModeFactorized).Run(view, build())
		if err != nil {
			t.Fatal(err)
		}
		return res.Block.Rows[0][0].I, res
	}
	base, baseRes := count(g)
	if baseRes.ZonesPruned == 0 {
		t.Fatal("fixture does not prune on the base graph")
	}

	m := txn.NewManager(g)
	tx := m.Begin([]vector.VID{moved, 5})
	if err := tx.SetProp(moved, s.PCreation, vector.Date(threshold+1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetProp(5, s.PFirstName, vector.String_("unrelated")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	got, res := count(snap)
	if got <= base {
		t.Fatalf("count on the snapshot = %d, base graph %d: the overlaid neighbor now matches and must survive its pruned zone", got, base)
	}
	if res.ZonesPruned != baseRes.ZonesPruned {
		t.Fatalf("snapshot pruned %d zones, base graph %d: overlays elsewhere must not disable pruning", res.ZonesPruned, baseRes.ZonesPruned)
	}
	oracle, err := volcano.New().Run(snap, build())
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Block.Rows[0][0].I; got != want {
		t.Fatalf("count = %d, oracle = %d", got, want)
	}
}
