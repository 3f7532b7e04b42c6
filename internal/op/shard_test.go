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
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// ringGraph builds n persons (external ids 1..n in scan order, creationDate
// 19000+i) whose KNOWS adjacency is decided by the test, so a NodeScan yields
// a parent block of exactly n rows. Person i knows i+1 and 3i+1 (mod n, self
// loops dropped); every third person is also known back by i+1, so mutual
// pairs exist for the intersection; every fifth person knows nobody, so
// empty child ranges sit between full ones.
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
// around them over parent blocks of 1 to 4097 rows, sized at and either
// side of multiples of the 64-row selection word (256, 512, 4096), with a
// selection vector that invalidates persons 257 to 512 and the last one, in
// the three modes against the volcano oracle. The flat mode drives the flat
// forms of Expand, ExpandIntersect and Filter with the same plans. A kernel
// that mishandles a ragged last word, a run of invalid rows or an empty
// child range diverges from the oracle here.
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

// TestShardResourcesIndependentOfWorkers pins what each operator draws from
// the pool for its one execution over a 4096-row parent block, so a change
// that draws per row or per batch shows here. The result's de-factor adds
// one pooled column per output column and, past a one-node tree, one
// 4096-slot tuple-row buffer per node.
func TestShardResourcesIndependentOfWorkers(t *testing.T) {
	const n = 4096
	g, s := ringGraph(t, n)
	scan := &op.NodeScan{Var: "p", Label: s.Person}
	// run returns the pool traffic of one execution: column gets, and slice
	// gets in the size class that holds n elements.
	run := func(p plan.Plan) (cols, classN int64) {
		t.Helper()
		eng := exec.New(exec.ModeFactorized)
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
	// An expand takes its child column, one index vector and one whole-block
	// source buffer; the fused predicate adds its one gather column.
	for _, c := range []struct {
		name string
		e    *op.Expand
		cols int64
	}{{"lazy", knows(), 1 + 2}, {"fused", fused, 2 + 2}} {
		if cols, got := run(plan.Plan{scan, c.e}); cols != c.cols || got != 2+2 {
			t.Errorf("%s expand: %d pooled columns and %d gets of %d-slot buffers, want %d and 2+2",
				c.name, cols, got, n, c.cols)
		}
	}

	// ProjectExpr's output is one query-lifetime column beside the ext-ID
	// column it reads; a one-node result passes the de-factor as it is.
	project := plan.Plan{scan,
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "p.id", ExtID: true}}},
		&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.C("p.id"), R: expr.LInt(1)}, As: "x", Kind: vector.KindInt64}}
	if cols, got := run(project); cols != 2 || got != 0 {
		t.Errorf("ProjectExpr: %d pooled columns and %d gets of %d-slot buffers, want 2 and 0", cols, got, n)
	}

	// A var-length expand takes its child column and one index vector; its
	// traversal scratch is small and recycled from one parent row to the
	// next.
	bfs := plan.Plan{scan, &op.VarLengthExpand{From: "p", To: "f", Et: s.Knows, Dir: catalog.Out,
		DstLabel: s.Person, MinHops: 1, MaxHops: 2}}
	if cols, got := run(bfs); cols != 1+2 || got != 1+2 {
		t.Errorf("VarLengthExpand: %d pooled columns and %d gets of %d-slot buffers, want 1+2 and 1+2", cols, got, n)
	}
}
