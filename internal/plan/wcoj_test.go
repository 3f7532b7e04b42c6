package plan

import (
	"testing"

	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/op"
)

func TestLowerWCOJFusesDiamond(t *testing.T) {
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.Expand{From: "b", To: "d", Et: 0, Dir: catalog.Out, DstLabel: 0},
		// Binder output for the second branch a→c→d: expand then close.
		&op.Expand{From: "a", To: "c", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "c", To: "d", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 4 {
		t.Fatalf("lowered plan = %s", low)
	}
	ix, ok := low[3].(*op.ExpandIntersect)
	if !ok {
		t.Fatalf("last op = %T, want ExpandIntersect", low[3])
	}
	if ix.To != "c" || len(ix.Sides) != 2 {
		t.Fatalf("intersect = %+v", ix)
	}
	if ix.Sides[0].Var != "a" || ix.Sides[0].Dir != catalog.Out {
		t.Fatalf("side 0 = %+v, want base a/Out", ix.Sides[0])
	}
	// The closure (c)-[:Out]->(d) probes d's reversed adjacency.
	if ix.Sides[1].Var != "d" || ix.Sides[1].Dir != catalog.In {
		t.Fatalf("side 1 = %+v, want d/In", ix.Sides[1])
	}
}

func TestLowerWCOJCollectsConsecutiveClosures(t *testing.T) {
	// Triangle-closing chain: Expand b→c, then close c→a — the Into's To is
	// the new vertex, so the side keeps its direction.
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.Expand{From: "b", To: "c", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "c", To: "a", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 3 {
		t.Fatalf("lowered plan = %s", low)
	}
	ix, ok := low[2].(*op.ExpandIntersect)
	if !ok {
		t.Fatalf("last op = %T, want ExpandIntersect", low[2])
	}
	if ix.To != "c" {
		t.Fatalf("To = %q", ix.To)
	}
	// Closure (c)->(a) becomes the reversed probe on a.
	if ix.Sides[1].Var != "a" || ix.Sides[1].Dir != catalog.In {
		t.Fatalf("side 1 = %+v, want a/In", ix.Sides[1])
	}
}

func TestLowerWCOJFourClique(t *testing.T) {
	// a→b, then c closing against {b,a}, then d closing against {c,a,b}.
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.Expand{From: "b", To: "c", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "a", To: "c", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
		&op.Expand{From: "c", To: "d", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "a", To: "d", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
		&op.ExpandInto{From: "b", To: "d", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 4 {
		t.Fatalf("lowered plan = %s", low)
	}
	c, ok := low[2].(*op.ExpandIntersect)
	if !ok || c.To != "c" || len(c.Sides) != 2 {
		t.Fatalf("op 2 = %s", low)
	}
	d, ok := low[3].(*op.ExpandIntersect)
	if !ok || d.To != "d" || len(d.Sides) != 3 {
		t.Fatalf("op 3 = %s", low)
	}
}

func TestLowerWCOJLeavesNonCyclicAlone(t *testing.T) {
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.Expand{From: "b", To: "c", Et: 0, Dir: catalog.Out, DstLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 3 {
		t.Fatalf("plan changed: %s", low)
	}
	// Single closure after an unrelated filter stays an ExpandInto.
	p2 := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "x", To: "y", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low2 := LowerWCOJ(p2)
	if len(low2) != 3 {
		t.Fatalf("unrelated closure fused: %s", low2)
	}
	// A hop-bounded closure is a path, not an adjacency run to intersect.
	p3 := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0, MinHops: 1, MaxHops: 2},
	}
	if low3 := LowerWCOJ(p3); len(low3) != 3 {
		t.Fatalf("hop-bounded closure lowered: %s", low3)
	}
}

func TestLowerWCOJSkipsFusedExpands(t *testing.T) {
	pred := op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(1)))
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0, VertexPred: pred},
		&op.ExpandInto{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 3 {
		t.Fatalf("fused-predicate expand was lowered: %s", low)
	}
}

func TestLowerWCOJSelfLoopStaysResidual(t *testing.T) {
	p := Plan{
		&op.NodeScan{Var: "a", Label: 0},
		&op.Expand{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ExpandInto{From: "a", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
		&op.ExpandInto{From: "b", To: "b", Et: 0, Dir: catalog.Out, DstLabel: 0, SrcLabel: 0},
	}
	low := LowerWCOJ(p)
	if len(low) != 3 {
		t.Fatalf("lowered plan = %s", low)
	}
	if _, ok := low[1].(*op.ExpandIntersect); !ok {
		t.Fatalf("op 1 = %T, want ExpandIntersect", low[1])
	}
	if _, ok := low[2].(*op.ExpandInto); !ok {
		t.Fatalf("self-loop closure = %T, want residual ExpandInto", low[2])
	}
}
