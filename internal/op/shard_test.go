package op_test

import (
	"fmt"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/sched"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// ringGraph builds n persons (external ids 1..n in scan order, creationDate
// 19000+i) whose KNOWS adjacency is decided by the test, so a NodeScan yields
// a parent block of exactly n rows. Person i knows i+1 and 3i+1 (mod n, self
// loops dropped); every third person is also known back by i+1, so mutual
// pairs exist for the intersection; every fifth person knows nobody, so
// empty child ranges sit inside every morsel.
func ringGraph(t testing.TB, n int) (*storage.Graph, *testgraph.Schema) {
	t.Helper()
	cat := catalog.New()
	s := testgraph.NewSchema(cat)
	g := storage.NewGraph(cat)
	ps := make([]vector.VID, n)
	for i := range ps {
		v, err := g.AddVertex(s.Person, int64(i+1),
			vector.String_(fmt.Sprintf("p%d", i%7)), vector.String_("Ring"), vector.Date(int64(19000+i)))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = v
	}
	add := func(i, j int) {
		if i == j {
			return
		}
		if err := g.AddEdge(s.Knows, ps[i], ps[j], vector.Date(int64(19500+(i+j)%50))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			continue
		}
		add(i, (i+1)%n)
		if (3*i+1)%n != (i+1)%n {
			add(i, (3*i+1)%n)
		}
		if i%3 == 0 && ((i+1)%n)%5 != 4 {
			add((i+1)%n, i)
		}
	}
	g.SealCSR()
	return g, s
}

// TestShardBoundaries runs every ordered producer and the in-place kernels
// around them over parent blocks sized at and either side of the shard
// threshold (512) and of the morsel sizes (256, 4096), with a selection
// vector that invalidates one whole 256-row morsel and the last row, in
// three modes at 1/2/4/8 workers against the volcano oracle. The flat mode
// drives the flat forms of Expand, ExpandIntersect and Filter with the same
// plans. A merge that rebases a range wrongly, drops a morsel, or misplaces
// an empty one diverges from the 1-worker run here.
func TestShardBoundaries(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 511, 512, 513, 768, 4096, 4097} {
		g, s := ringGraph(t, n)
		knows := func(to string) *op.Expand {
			return &op.Expand{From: "p", To: to, Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person}
		}
		early := func() *op.VertexPred {
			return op.VertexPropPred(expr.Lt(expr.C("creationDate"), expr.LDate(int64(19000+n/2))))
		}
		// Rows 256..511 and the last row are invalid below the filter.
		sel := expr.And{
			L: expr.Or{L: expr.Le(expr.C("p.id"), expr.LInt(256)), R: expr.Gt(expr.C("p.id"), expr.LInt(512))},
			R: expr.Ne(expr.C("p.id"), expr.LInt(int64(n))),
		}
		shape := func(ops ...op.Operator) func() plan.Plan {
			return func() plan.Plan {
				p := plan.Plan{&op.NodeScan{Var: "p", Label: s.Person},
					&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "p.id", ExtID: true}}},
					&op.Filter{Pred: sel}}
				return append(p, ops...)
			}
		}
		fID := &op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}}
		shapes := []struct {
			name  string
			build func() plan.Plan
		}{
			{"expand/lazy", shape(knows("f"), fID, &op.Defactor{Cols: []string{"p.id", "f.id"}})},
			{"expand/fused-pred", func() plan.Plan {
				e := knows("f")
				e.VertexPred = early()
				return shape(e, fID, &op.Defactor{Cols: []string{"p.id", "f.id"}})()
			}},
			{"expand/edge-props", func() plan.Plan {
				e := knows("f")
				e.EdgeProps = []op.EdgeProj{{Prop: "creationDate", As: "since"}}
				return shape(e, fID, &op.Defactor{Cols: []string{"p.id", "f.id", "since"}})()
			}},
			{"varexpand/bfs", shape(
				&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
					MinHops: 1, MaxHops: 2},
				fID, &op.Defactor{Cols: []string{"p.id", "f.id"}})},
			{"varexpand/bfs-pred", shape(
				&op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person,
					MinHops: 1, MaxHops: 2},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "creationDate", As: "f.creationDate"}}},
				&op.Filter{Pred: expr.Lt(expr.C("f.creationDate"), expr.LDate(int64(19000+n/2)))},
				fID, &op.Defactor{Cols: []string{"p.id", "f.id"}})},
			{"intersect/mutual", shape(
				&op.ExpandIntersect{To: "f", Sides: []op.IntersectSide{
					{Var: "p", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person},
					{Var: "p", Et: s.Knows, Dir: catalog.In, DstLabel: s.Person}}},
				fID, &op.Defactor{Cols: []string{"p.id", "f.id"}})},
			{"project-expr", shape(
				&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.Arith{Op: expr.Mul, L: expr.C("p.id"), R: expr.LInt(2)}, R: expr.LInt(1)},
					As: "x", Kind: vector.KindInt64},
				&op.Defactor{Cols: []string{"p.id", "x"}})},
			// No Defactor: the engine's final flatten enumerates every column.
			{"defactor/all", shape(knows("f"))},
			// The range kernel, over the scan's shared column.
			{"filter/int-kernel", func() plan.Plan {
				return plan.Plan{&op.NodeScan{Var: "p", Label: s.Person},
					&op.ProjectProps{Specs: []op.ProjSpec{
						{Var: "p", Prop: "creationDate", As: "p.creationDate"}, {Var: "p", As: "p.id", ExtID: true}}},
					&op.Filter{Pred: expr.Ge(expr.C("p.creationDate"), expr.LDate(int64(19000+n/3)))},
					&op.Defactor{Cols: []string{"p.id"}}}
			}},
		}
		for _, sh := range shapes {
			sh := sh
			t.Run(fmt.Sprintf("n=%d/%s", n, sh.name), func(t *testing.T) {
				paritytest.Check(t, g, sh.build, false)
			})
		}
	}
}

// TestShardResourcesIndependentOfWorkers pins what an operator draws from the
// pool to its input, not to the worker count: one index vector per expand,
// an arena-owned ProjectExpr column, and pooled columns (not heap staging)
// as the var-length shard sinks.
func TestShardResourcesIndependentOfWorkers(t *testing.T) {
	const n = 4096
	g, s := ringGraph(t, n)
	scan := &op.NodeScan{Var: "p", Label: s.Person}
	// run returns the pool traffic of one execution at the given parallelism:
	// column gets, and slice gets in the size class that holds n elements.
	run := func(workers int, p plan.Plan) (cols, classN int64) {
		t.Helper()
		eng := exec.New(exec.ModeFactorized)
		eng.Parallel = workers
		if _, err := eng.Run(g, p); err != nil {
			t.Fatal(err)
		}
		st := eng.Pool.DetailedStats()
		for _, c := range st.Classes {
			if c.Cap == n {
				classN = c.Gets
			}
		}
		return st.Columns.Gets, classN
	}
	knows := func() *op.Expand {
		return &op.Expand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out, DstLabel: s.Person}
	}
	fused := knows()
	fused.VertexPred = op.VertexPropPred(expr.Lt(expr.C("creationDate"), expr.LDate(19000+n/2)))
	for name, e := range map[string]*op.Expand{"lazy": knows(), "fused": fused} {
		// One shard: the index vector and the whole-block source buffer.
		// k shards: the index vector alone — morsels fill sub-slices of it
		// and draw 256-slot source buffers. At every count the result's
		// de-factor adds one tuple-row buffer per node, sized by the root.
		if _, got := run(1, plan.Plan{scan, e}); got != 2+2 {
			t.Errorf("%s expand, 1 worker: %d gets of %d-slot buffers, want 2+2", name, got, n)
		}
		if _, got := run(4, plan.Plan{scan, e}); got != 1+2 {
			t.Errorf("%s expand, 4 workers: %d gets of %d-slot buffers, want 1+2 (the index vector)", name, got, n)
		}
	}

	project := func() plan.Plan {
		return plan.Plan{scan,
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "p.id", ExtID: true}}},
			&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.C("p.id"), R: expr.LInt(1)}, As: "x", Kind: vector.KindInt64}}
	}
	seq, _ := run(1, project())
	par, _ := run(4, project())
	if seq != par {
		t.Errorf("ProjectExpr draws %d pooled columns at 1 worker and %d at 4; the output column is arena-owned at every count", seq, par)
	}

	bfs := func() plan.Plan {
		return plan.Plan{scan, &op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
			DstLabel: s.Person, MinHops: 1, MaxHops: 2}}
	}
	seq, _ = run(1, bfs())
	par, _ = run(4, bfs())
	if want := int64(sched.NumMorsels(n, 256)); par-seq != want {
		t.Errorf("VarLengthExpand draws %d more pooled columns at 4 workers than at 1, want %d: one sink column per morsel", par-seq, want)
	}
}
