package op_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
	"ges/internal/volcano"
)

var modes = []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused}

// run executes a plan in the given mode against the fixture.
func run(t *testing.T, f *testgraph.Fixture, mode exec.Mode, p plan.Plan) *core.FlatBlock {
	t.Helper()
	e := exec.New(mode)
	res, err := e.Run(f.Graph, p)
	if err != nil {
		t.Fatalf("mode %s: %v", mode, err)
	}
	return res.Block
}

// rowsAsStrings renders a block's rows sorted, for order-insensitive
// comparison.
func rowsAsStrings(fb *core.FlatBlock) []string {
	out := make([]string, fb.NumRows())
	for i, row := range fb.Rows {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// assertModesAgree runs the plan under all three engine variants and checks
// the result multisets match — the paper's core correctness claim that
// factorization is lossless.
func assertModesAgree(t *testing.T, f *testgraph.Fixture, build func() plan.Plan) *core.FlatBlock {
	t.Helper()
	var ref *core.FlatBlock
	var refRows []string
	for _, m := range modes {
		fb := run(t, f, m, build())
		if ref == nil {
			ref, refRows = fb, rowsAsStrings(fb)
			continue
		}
		if got := rowsAsStrings(fb); !reflect.DeepEqual(got, refRows) {
			t.Fatalf("mode %s disagrees with %s:\n got %v\nwant %v", m, modes[0], got, refRows)
		}
	}
	return ref
}

// checkRows runs the plan through the parity check (every mode equal to the
// volcano oracle) and compares the rows with an
// independently computed, sorted expectation.
func checkRows(t *testing.T, view storage.View, build func() plan.Plan, want []string, label string) {
	t.Helper()
	got := paritytest.Check(t, view, build, false)[1:] // drop the header row
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
	}
}

func TestNodeByIdSeek(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	fb := run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 103},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "p", Prop: "firstName", As: "name"},
			{Var: "p", As: "p.id", ExtID: true},
		}},
	})
	if fb.NumRows() != 1 {
		t.Fatalf("rows = %d", fb.NumRows())
	}
	if fb.Rows[0][1].S != "Dan" || fb.Rows[0][2].I != 103 {
		t.Fatalf("row = %v", fb.Rows[0])
	}
	// Missing vertex yields an empty (not failed) result.
	fb = run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 999},
	})
	if fb.NumRows() != 0 {
		t.Fatal("seek of unknown id must yield zero rows")
	}
}

func TestExpandOneHopAllModes(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Defactor{Cols: []string{"f.id"}},
		}
	}
	fb := assertModesAgree(t, f, build)
	got := rowsAsStrings(fb)
	want := []string{"101|", "102|", "103|"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("friends of p0 = %v, want %v", got, want)
	}
}

// TestExpandCopiesNeighbours checks the factorized expand's output node: the
// neighbours copied into the new VID column, with and without a projected
// edge property beside them.
func TestExpandCopiesNeighbours(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	ctx := &op.Ctx{View: f.Graph}
	p0 := testgraph.NeighborVIDs(f.Graph, f.Persons[0], s.Knows, catalog.Out, s.Person)
	for _, props := range [][]op.EdgeProj{nil, {{Prop: "creationDate", As: "since"}}} {
		ch, err := op.RunPlan(ctx, nil, []op.Operator{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person, EdgeProps: props},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ch.NumNodes() != 2 {
			t.Fatal("expand output should stay factorized")
		}
		_, col := ch.FindColumn("f")
		if col == nil || !slices.Equal(col.VIDs(), p0) {
			t.Fatalf("edge props %v: neighbour column %v, want %v", props, col, p0)
		}
		if props == nil {
			continue
		}
		if _, c := ch.FindColumn("since"); c == nil || c.Len() != len(p0) {
			t.Fatalf("edge property column %v, want %d rows", c, len(p0))
		}
	}
}

func TestTwoHopExpandGrowsTree(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	ctx := &op.Ctx{View: f.Graph}
	ch, err := op.RunPlan(ctx, nil, []op.Operator{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.Expand{From: "p", To: "f1", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.Expand{From: "f1", To: "f2", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumNodes() != 3 {
		t.Fatalf("tree has %d nodes, want 3 (each Expand adds one)", ch.NumNodes())
	}
	// p0 -> {p1,p2,p3} -> their knows-neighbors (symmetric edges):
	// p1: p0,p4; p2: p0,p4,p5; p3: p0,p6 => 7 two-hop tuples.
	if got := ch.CountTuples(); got != 7 {
		t.Fatalf("two-hop tuples = %d, want 7", got)
	}
}

func TestVarLengthExpandDistinct(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
				DstLabel: s.Person, MinHops: 1, MaxHops: 2},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Defactor{Cols: []string{"f.id"}},
		}
	}
	fb := assertModesAgree(t, f, build)
	got := rowsAsStrings(fb)
	want := []string{"101|", "102|", "103|", "104|", "105|", "106|"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("friends within 2 hops = %v, want %v", got, want)
	}
}

func TestVarLengthExpandMinHops(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	fb := run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, MinHops: 2, MaxHops: 2},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
		&op.Defactor{Cols: []string{"f.id"}},
	})
	got := rowsAsStrings(fb)
	want := []string{"104|", "105|", "106|"} // exactly-2-hop friends
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exactly-2-hop = %v, want %v", got, want)
	}
}

// TestPaperExampleQuery reproduces the end-to-end query of §4.3 / Figure 8
// on the fixture: friends within 2 hops of p0, their messages with
// length > 125, top-2 by (length DESC, friend id ASC).
func TestPaperExampleQuery(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
				DstLabel: s.Person, MinHops: 1, MaxHops: 2},
			&op.Expand{From: "f", To: "msg", Et: s.HasCreator, Dir: catalog.In,
				DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "msg", Prop: "length", As: "msg.len"},
				{Var: "msg", As: "msg.id", ExtID: true},
				{Var: "f", As: "f.id", ExtID: true},
			}},
			&op.Filter{Pred: expr.Gt(expr.C("msg.len"), expr.LInt(125))},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "msg.len", Desc: true}, {Col: "f.id"}},
				Limit: 2,
				Cols:  []string{"f.id", "msg.id", "msg.len"},
			},
		}
	}
	fb := assertModesAgree(t, f, build)
	if fb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", fb.NumRows(), fb)
	}
	// Expected: (p6=106, m5=205, 150), then (p5=105, m4=204, 140).
	want := [][3]int64{{106, 205, 150}, {105, 204, 140}}
	for i, w := range want {
		if fb.Rows[i][0].I != w[0] || fb.Rows[i][1].I != w[1] || fb.Rows[i][2].I != w[2] {
			t.Fatalf("row %d = %v, want %v", i, fb.Rows[i], w)
		}
	}
}

func TestFilterUpdatesSelectionVectorInPlace(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	ctx := &op.Ctx{View: f.Graph}
	ch, err := op.RunPlan(ctx, nil, []op.Operator{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
		&op.Filter{Pred: expr.Ge(expr.C("f.id"), expr.LInt(102))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumNodes() != 2 {
		t.Fatal("single-node filter must keep the tree factorized")
	}
	n, _ := ch.FindColumn("f.id")
	if n.Sel.Count() != 2 {
		t.Fatalf("valid rows after filter = %d, want 2", n.Sel.Count())
	}
	if got := ch.CountTuples(); got != 2 {
		t.Fatalf("tuples = %d", got)
	}
}

func TestCrossNodeFilterDefactors(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	ctx := &op.Ctx{View: f.Graph}
	ch, err := op.RunPlan(ctx, nil, []op.Operator{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.Expand{From: "f", To: "g", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{
			{Var: "f", As: "f.id", ExtID: true},
			{Var: "g", As: "g.id", ExtID: true},
		}},
		// f.id and g.id live on different nodes: must de-factor.
		&op.Filter{Pred: expr.Lt(expr.C("f.id"), expr.C("g.id"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumNodes() != 1 {
		t.Fatal("cross-node filter must de-factor to one node")
	}
	fb, err := ch.DefactorAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fb.Rows {
		fi := row[fb.ColIndex("f.id")].I
		gi := row[fb.ColIndex("g.id")].I
		if fi >= gi {
			t.Fatalf("filter violated: f.id=%d g.id=%d", fi, gi)
		}
	}
}

func TestAggregateAllModes(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	// Count messages per 2-hop friend.
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
				DstLabel: s.Person, MinHops: 1, MaxHops: 2},
			&op.Expand{From: "f", To: "msg", Et: s.HasCreator, Dir: catalog.In,
				DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", As: "f.id", ExtID: true},
				{Var: "msg", Prop: "length", As: "msg.len"},
			}},
			&op.Aggregate{
				GroupBy: []string{"f.id"},
				Aggs: []op.AggSpec{
					{Func: op.Count, As: "cnt"},
					{Func: op.Sum, Arg: "msg.len", As: "totalLen"},
					{Func: op.Max, Arg: "msg.len", As: "maxLen"},
				},
			},
			&op.OrderBy{Keys: []op.SortKey{{Col: "f.id"}}},
		}
	}
	fb := assertModesAgree(t, f, build)
	// p1: m0(100)+c2(30); p2: m1(110)+m2(120); p4: m3(130)+c0(20);
	// p5: m4(140)+c1(25); p6: m5(150). p3 creates nothing -> absent.
	type rowT struct{ id, cnt, total, max int64 }
	want := []rowT{
		{101, 2, 130, 100},
		{102, 2, 230, 120},
		{104, 2, 150, 130},
		{105, 2, 165, 140},
		{106, 1, 150, 150},
	}
	if fb.NumRows() != len(want) {
		t.Fatalf("groups = %d, want %d\n%s", fb.NumRows(), len(want), fb)
	}
	for i, w := range want {
		r := fb.Rows[i]
		if r[0].I != w.id || r[1].I != w.cnt || r[2].I != w.total || r[3].I != w.max {
			t.Fatalf("group %d = %v, want %+v", i, r, w)
		}
	}
}

func TestAggregateAvgAndCountDistinct(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func(aggs ...op.AggSpec) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "lastName", As: "ln"}}},
			&op.Aggregate{GroupBy: nil, Aggs: aggs},
		}
	}
	fb := run(t, f, exec.ModeFused, build(op.AggSpec{Func: op.CountDistinct, Arg: "ln", As: "distinctNames"}))
	if fb.NumRows() != 1 || fb.Rows[0][0].I != 1 {
		t.Fatalf("count distinct lastName = %v", fb.Rows[0])
	}
	// SUM and AVG take numbers only: over a string or a VID they are an
	// error, the same one in every mode and in the volcano oracle.
	for _, c := range []struct {
		fn   op.AggFunc
		arg  string
		kind vector.Kind
	}{{op.Avg, "ln", vector.KindString}, {op.Sum, "ln", vector.KindString}, {op.Sum, "f", vector.KindVID}} {
		p := build(op.AggSpec{Func: c.fn, Arg: c.arg, As: "x"})
		want := fmt.Sprintf("%s(%s) takes a number, got %s", c.fn, c.arg, c.kind)
		engines := map[string]interface {
			Run(storage.View, plan.Plan) (*exec.Result, error)
		}{"volcano": volcano.New()}
		for _, mode := range modes {
			engines[mode.String()] = exec.New(mode)
		}
		for name, eng := range engines {
			if _, err := eng.Run(f.Graph, p); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want %q", name, err, want)
			}
		}
	}
}

func TestLimitAndSkip(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	full := run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "id", ExtID: true}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "id"}}},
		&op.Limit{N: 3, Skip: 2},
	})
	if full.NumRows() != 3 {
		t.Fatalf("rows = %d", full.NumRows())
	}
	for i, want := range []int64{102, 103, 104} {
		if full.Rows[i][1].I != want {
			t.Fatalf("row %d id = %d, want %d", i, full.Rows[i][1].I, want)
		}
	}
	// Factorized early-exit limit.
	lim := run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeScan{Var: "p", Label: s.Person},
		&op.Limit{N: 4},
	})
	if lim.NumRows() != 4 {
		t.Fatalf("factorized limit rows = %d", lim.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Expand{From: "f", To: "g", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
			&op.Distinct{Cols: []string{"g.id"}},
		}
	}
	fb := assertModesAgree(t, f, build)
	got := rowsAsStrings(fb)
	// 2-hop multiset {p0 x3, p4 x2, p5, p6} -> distinct {100,104,105,106}.
	want := []string{"100|", "104|", "105|", "106|"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distinct = %v, want %v", got, want)
	}
}

func TestOrderByKeyOutsideOutputColumns(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	// Sort by length but only output ids: the key column must be fetched
	// for ordering, then dropped from the output schema.
	build := func() plan.Plan {
		return plan.Plan{
			&op.NodeScan{Var: "m", Label: s.Post},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "m", As: "m.id", ExtID: true},
				{Var: "m", Prop: "length", As: "m.len"},
			}},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "m.len", Desc: true}},
				Limit: 3,
				Cols:  []string{"m.id"},
			},
		}
	}
	fb := assertModesAgree(t, f, build)
	if fb.NumCols() != 1 || fb.Names[0] != "m.id" {
		t.Fatalf("schema = %v", fb.Names)
	}
	// Posts have lengths 100..160 on ext ids 200..206; top-3 by length.
	want := []int64{206, 205, 204}
	for i, w := range want {
		if fb.Rows[i][0].I != w {
			t.Fatalf("row %d = %v, want %d", i, fb.Rows[i], w)
		}
	}
}

func TestRenameOperator(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	fb := run(t, f, exec.ModeFactorized, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "firstName", As: "fn"}}},
		&op.Rename{From: []string{"fn"}, To: []string{"name"}},
		&op.Defactor{Cols: []string{"name"}},
	})
	if fb.Names[0] != "name" || fb.Rows[0][0].S != "Ada" {
		t.Fatalf("rename failed: %v %v", fb.Names, fb.Rows)
	}
	// Flat-path rename.
	fb2 := run(t, f, exec.ModeFlat, plan.Plan{
		&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "firstName", As: "fn"}}},
		&op.Rename{From: []string{"fn"}, To: []string{"name"}},
	})
	if fb2.ColIndex("name") < 0 {
		t.Fatalf("flat rename failed: %v", fb2.Names)
	}
}

func TestOperatorErrorPaths(t *testing.T) {
	f := testgraph.New()
	s := f.Schema
	e := exec.New(exec.ModeFactorized)
	cases := []struct {
		name string
		p    plan.Plan
	}{
		{"expand unknown var", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "ghost", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
		}},
		{"expand unknown edge prop", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
				EdgeProps: []op.EdgeProj{{Prop: "ghost", As: "g"}}},
		}},
		{"project unknown prop", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "ghost", As: "g"}}},
		}},
		{"filter unknown col", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Filter{Pred: expr.Gt(expr.C("ghost"), expr.LInt(1))},
		}},
		{"orderby unknown key", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.OrderBy{Keys: []op.SortKey{{Col: "ghost"}}},
		}},
		{"aggregate unknown group", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Aggregate{GroupBy: []string{"ghost"}, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
		}},
		{"sum without arg", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Sum, As: "n"}}},
		}},
		{"pattern count unknown from", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.PatternCount{From: "ghost", As: "n", Path: []op.Operator{
				&op.Expand{From: "ghost", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person}}},
		}},
		{"pattern path de-factors", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.PatternCount{From: "p", As: "n", Path: []op.Operator{
				&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
				&op.Defactor{Cols: []string{"f"}}}},
		}},
		{"pattern path reads another branch", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
			&op.Expand{From: "p", To: "m", Et: s.Likes, Dir: catalog.Out, DstLabel: s.Post},
			&op.PatternCount{From: "f", As: "n", Path: []op.Operator{
				&op.Expand{From: "m", To: "c", Et: s.HasCreator, Dir: catalog.Out, DstLabel: s.Person}}},
		}},
		{"seek not source", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.NodeByIdSeek{Var: "q", Label: s.Person, ExtID: 101},
		}},
		{"defactor unknown col", plan.Plan{
			&op.NodeByIdSeek{Var: "p", Label: s.Person, ExtID: 100},
			&op.Defactor{Cols: []string{"ghost"}},
		}},
	}
	for _, c := range cases {
		if _, err := e.Run(f.Graph, c.p); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
