package exec_test

import (
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
)

func TestModeNames(t *testing.T) {
	if exec.ModeFlat.String() != "GES" ||
		exec.ModeFactorized.String() != "GES_f" ||
		exec.ModeFused.String() != "GES_f*" {
		t.Fatal("mode names must match the paper's variant names")
	}
}

func paperPlan(f *testgraph.Fixture) plan.Plan {
	s := f.Schema
	return plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, MinHops: 1, MaxHops: 2},
		&op.Expand{From: "f", To: "msg", Et: s.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "msg", Prop: "length", As: "msg.len"}}},
		&op.Filter{Pred: expr.Gt(expr.C("msg.len"), expr.LInt(125))},
		&op.OrderBy{Keys: []op.SortKey{{Col: "msg.len", Desc: true}}, Limit: 2},
	}
}

func TestCollectStatsProducesOperatorBreakdown(t *testing.T) {
	f := testgraph.New()
	e := exec.New(exec.ModeFlat)
	e.CollectStats = true
	res, err := e.Run(f.Graph, paperPlan(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OpStats) != 6 {
		t.Fatalf("op stats = %d entries, want 6", len(res.OpStats))
	}
	names := make([]string, len(res.OpStats))
	for i, s := range res.OpStats {
		names[i] = s.Name
		if s.OutRows < 0 {
			t.Fatalf("negative rows for %s", s.Name)
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "Expand") || !strings.Contains(joined, "Filter") {
		t.Fatalf("breakdown misses operators: %v", names)
	}
	if res.PeakMem <= 0 {
		t.Fatal("peak memory not tracked")
	}
}

func TestFlatModeMaterializesEverywhere(t *testing.T) {
	f := testgraph.New()
	e := exec.New(exec.ModeFlat)
	e.CollectStats = true
	res, err := e.Run(f.Graph, paperPlan(f))
	if err != nil {
		t.Fatal(err)
	}
	// In flat mode the chunk after every operator is a flat block whose
	// accounted bytes grow with the two-hop expansion; in factorized mode
	// the same plan's peak should be no larger.
	ef := exec.New(exec.ModeFactorized)
	ef.CollectStats = true
	resF, err := ef.Run(f.Graph, paperPlan(f))
	if err != nil {
		t.Fatal(err)
	}
	if res.Block.NumRows() != resF.Block.NumRows() {
		t.Fatalf("modes disagree: %d vs %d rows", res.Block.NumRows(), resF.Block.NumRows())
	}
}

func TestMaxRowsGuard(t *testing.T) {
	f := testgraph.New()
	e := exec.New(exec.ModeFlat)
	e.MaxRows = 3
	_, err := e.Run(f.Graph, plan.Plan{
		&op.NodeScan{Var: "p", Label: f.Schema.Person},
		&op.Expand{From: "p", To: "f", Et: f.Schema.Knows, Dir: catalog.Out, DstLabel: f.Schema.Person},
	})
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("row limit not enforced: %v", err)
	}
}

func TestEmptyPlanErrors(t *testing.T) {
	f := testgraph.New()
	if _, err := exec.New(exec.ModeFused).Run(f.Graph, nil); err == nil {
		t.Fatal("empty plan must fail")
	}
}

// TestFusedModeRewritesPlans verifies the engine applies the fusion rules
// itself: the executed operator names must include the fused operators even
// though the submitted plan is unfused.
func TestFusedModeRewritesPlans(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	unfused := plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.Expand{From: "p", To: "fr", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "fr", As: "fr.id", ExtID: true}}},
		&op.Aggregate{GroupBy: nil, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}}, Limit: 1},
	}
	e := exec.New(exec.ModeFused)
	e.CollectStats = true
	res, err := e.Run(f.Graph, unfused)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range res.OpStats {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "SeekExpand(fused)") ||
		!strings.Contains(joined, "AggregateProjectTop(fused)") {
		t.Fatalf("fused engine did not rewrite the plan: %v", names)
	}
	// The same plan on the factorized engine keeps its original shape.
	e2 := exec.New(exec.ModeFactorized)
	e2.CollectStats = true
	res2, err := e2.Run(f.Graph, unfused)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res2.OpStats {
		if strings.Contains(s.Name, "fused") {
			t.Fatalf("factorized engine fused unexpectedly: %v", s.Name)
		}
	}
	if res.Block.Rows[0][0].I != res2.Block.Rows[0][0].I {
		t.Fatal("fused and unfused results differ")
	}
}
