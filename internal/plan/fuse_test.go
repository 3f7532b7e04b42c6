package plan

import (
	"strings"
	"testing"

	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

func TestFuseSeekExpand(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 1},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
	}
	fused := Fuse(p)
	if len(fused) != 2 {
		t.Fatalf("fused plan = %s", fused)
	}
	if _, ok := fused[0].(*op.SeekExpand); !ok {
		t.Fatalf("first op = %T, want SeekExpand", fused[0])
	}
	// Original untouched.
	if _, ok := p[0].(*op.NodeByIdSeek); !ok {
		t.Fatal("Fuse mutated its input")
	}
}

func TestFuseSeekExpandBlockedByLaterReference(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 1},
		// References the seek variable: fusion must not fire.
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "p.id", ExtID: true}}},
	}
	fused := Fuse(p)
	if _, ok := fused[0].(*op.NodeByIdSeek); !ok {
		t.Fatalf("fusion fired despite later reference: %s", fused)
	}
}

func TestFuseSeekExpandBlockedByWildcard(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 1},
		&op.Defactor{}, // full-schema defactor keeps p in the output
	}
	fused := Fuse(p)
	if _, ok := fused[0].(*op.NodeByIdSeek); !ok {
		t.Fatalf("fusion fired under wildcard output: %s", fused)
	}
}

func TestFuseAggregateProjectTop(t *testing.T) {
	agg := &op.Aggregate{GroupBy: []string{"g"}, Aggs: []op.AggSpec{{Func: op.Count, As: "c"}}}
	cases := []struct {
		name string
		tail Plan
	}{
		{"orderby-with-limit", Plan{agg, &op.OrderBy{Keys: []op.SortKey{{Col: "c", Desc: true}}, Limit: 5}}},
		{"orderby-then-limit", Plan{agg, &op.OrderBy{Keys: []op.SortKey{{Col: "c", Desc: true}}}, &op.Limit{N: 5}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fused := Fuse(c.tail)
			if len(fused) != 1 {
				t.Fatalf("plan = %s", fused)
			}
			apt, ok := fused[0].(*op.AggregateProjectTop)
			if !ok {
				t.Fatalf("op = %T", fused[0])
			}
			if apt.Limit != 5 || len(apt.Keys) != 1 {
				t.Fatalf("fused params = %+v", apt)
			}
		})
	}
}

func TestFuseFilterPushDown(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "age", As: "f.age"}}},
		&op.Filter{Pred: expr.Gt(expr.C("f.age"), expr.LInt(30))},
		&op.Defactor{Cols: []string{"f.age"}},
	}
	fused := Fuse(p)
	s := fused.String()
	if strings.Contains(s, "Filter") {
		t.Fatalf("filter survived fusion: %s", s)
	}
	if !strings.Contains(s, "Expand(fused-filter)") {
		t.Fatalf("expand did not absorb the filter: %s", s)
	}
	// Projection output still referenced by Defactor: must survive.
	if !strings.Contains(s, "Project") {
		t.Fatalf("needed projection dropped: %s", s)
	}
}

func TestFuseFilterPushDownDropsDeadProjection(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "age", As: "f.age"}}},
		&op.Filter{Pred: expr.Gt(expr.C("f.age"), expr.LInt(30))},
		&op.Defactor{Cols: []string{"f"}}, // projection output unused downstream
	}
	fused := Fuse(p)
	s := fused.String()
	if strings.Contains(s, "Project") {
		t.Fatalf("dead projection survived: %s", s)
	}
}

func TestFuseFilterPushDownBlockedByForeignColumn(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p", Label: 0, ExtID: 1},
		&op.Expand{From: "p", To: "f", Et: 0, Dir: catalog.Out, DstLabel: 0},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "age", As: "f.age"}}},
		// Predicate touches a column the projection did not produce.
		&op.Filter{Pred: expr.Gt(expr.C("other"), expr.LInt(30))},
	}
	fused := Fuse(p)
	if !strings.Contains(fused.String(), "Filter") {
		t.Fatalf("fusion fired on foreign column: %s", fused)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{
		&op.NodeByIdSeek{Var: "p"},
		&op.Limit{N: 1},
	}
	if got := p.String(); got != "NodeByIdSeek -> Limit" {
		t.Fatalf("String = %q", got)
	}
}

// TestFuseRules pins each rewrite of the aggregation and ordering rules by
// the fused plan's operator chain, with the shapes that must not fire.
func TestFuseRules(t *testing.T) {
	const person, post = catalog.LabelID(1), catalog.LabelID(2)
	scan := func(v string) *op.NodeScan { return &op.NodeScan{Var: v, Label: person} }
	expand := func(from, to string, dst catalog.LabelID) *op.Expand {
		return &op.Expand{From: from, To: to, Et: 0, Dir: catalog.Out, DstLabel: dst}
	}
	id := func(v string) op.ProjSpec { return op.ProjSpec{Var: v, As: v + ".id", ExtID: true} }
	prop := func(v, p string) op.ProjSpec { return op.ProjSpec{Var: v, Prop: p, As: v + "." + p} }
	project := func(specs ...op.ProjSpec) *op.ProjectProps { return &op.ProjectProps{Specs: specs} }
	count := op.AggSpec{Func: op.Count, As: "n"}
	countBy := func(key string) *op.Aggregate {
		return &op.Aggregate{GroupBy: []string{key}, Aggs: []op.AggSpec{count}}
	}
	aggOf := func(p Plan) *op.Aggregate { return p[len(p)-1].(*op.Aggregate) }
	sumBy := func(key string) *op.Aggregate {
		return &op.Aggregate{GroupBy: []string{key}, Aggs: []op.AggSpec{{Func: op.Sum, Arg: "f.age", As: "s"}}}
	}
	positive := &op.Filter{Pred: expr.Gt(expr.C("s"), expr.LInt(0))}
	unordered := func(at int, want bool) func(t *testing.T, p Plan) {
		return func(t *testing.T, p Plan) {
			if g := p[at].(*op.Aggregate); g.Unordered != want {
				t.Fatalf("aggregate %+v, want Unordered %v", g, want)
			}
		}
	}
	// newest is the friends' messages, newest first, filtered by pred (nil:
	// none) and ordered by key first.
	newest := func(dst catalog.LabelID, pred expr.Expr, key string) Plan {
		p := Plan{scan("f"), project(id("f")), expand("f", "msg", dst), project(prop("msg", "creationDate"), prop("msg", "length"), id("msg"))}
		if pred != nil {
			p = append(p, &op.Filter{Pred: pred})
		}
		return append(p, &op.OrderBy{Keys: []op.SortKey{{Col: key, Desc: true}, {Col: "msg.id"}}, Limit: 20,
			Cols: []string{"f.id", "msg.id", "msg.creationDate"}})
	}
	dateBound := expr.Lt(expr.C("msg.creationDate"), expr.LDate(9))
	// cut checks the expand's cut; it keeps its filter for the plain expand
	// it runs when no destination label is laid out by the key.
	cut := func(want op.Newest) func(t *testing.T, p Plan) {
		return func(t *testing.T, p Plan) {
			if got := p[1].(*op.Expand); got.Newest == nil || *got.Newest != want || got.VertexPred == nil {
				t.Fatalf("expand %+v, want the cut %+v and the filter", got, want)
			}
		}
	}
	type fuseCase struct {
		name  string
		in    Plan
		want  string
		check func(t *testing.T, p Plan)
	}
	cases := []fuseCase{
		// (a) Leaves only counted. Off the group key a leaf stays a plain
		// expand the aggregate folds through the f-Tree's weights.
		{"count-leaf", Plan{scan("f"), expand("f", "post", post), countBy("f")},
			"NodeScan -> Expand -> Aggregate", func(t *testing.T, p Plan) {
				if g := aggOf(p); len(g.Leaves) != 0 {
					t.Fatalf("aggregate %+v", g)
				}
			}},
		// A leaf on the group key runs once per group, in the aggregate.
		{"count-leaf-past-projection", Plan{scan("p"),
			&op.VarLengthExpand{From: "p", To: "f", DstLabel: person, MinHops: 2, MaxHops: 2},
			expand("f", "post", post), project(id("f")), countBy("f.id")},
			"NodeScan -> VarLengthExpand -> Aggregate(per-group count post)", func(t *testing.T, p Plan) {
				if g := aggOf(p); g.KeyVar != "f" || len(g.Leaves) != 1 || g.Leaves[0].To != "post" {
					t.Fatalf("aggregate %+v", g)
				}
			}},
		{"group-leaf-ic5", Plan{&op.NodeByIdSeek{Var: "p", Label: person, ExtID: 1},
			&op.VarLengthExpand{From: "p", To: "f", DstLabel: person, MinHops: 1, MaxHops: 2},
			&op.Expand{From: "f", To: "forum", DstLabel: post, EdgeProps: []op.EdgeProj{{Prop: "joinDate", As: "joinDate"}}},
			&op.Filter{Pred: expr.Gt(expr.C("joinDate"), expr.LInt(3))},
			project(id("forum")), expand("forum", "post", post), countBy("forum.id"),
			&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}, {Col: "forum.id"}}, Limit: 20}},
			"NodeByIdSeek -> VarLengthExpand -> Expand -> Filter -> AggregateProjectTop(fused, per-group count post)",
			func(t *testing.T, p Plan) {
				g := p[len(p)-1].(*op.AggregateProjectTop)
				if g.KeyVar != "forum" || len(g.Leaves) != 1 {
					t.Fatalf("aggregate %+v", g.Aggregate)
				}
			}},
		{"group-leaf-two-leaves", Plan{scan("f"), expand("f", "post", post), expand("f", "m", post),
			project(id("f")), countBy("f.id")},
			"NodeScan -> Aggregate(per-group count m,post)", nil},
		{"group-leaf-off-key", Plan{scan("p"), expand("p", "f", person), expand("f", "post", post),
			project(id("p")), countBy("p.id")},
			"NodeScan -> Expand -> Expand -> Aggregate", func(t *testing.T, p Plan) {
				if g := aggOf(p); g.KeyVar != "p" || len(g.Leaves) != 0 {
					t.Fatalf("aggregate %+v", g)
				}
			}},
		{"group-leaf-any-label-key", Plan{scan("p"), expand("p", "m", storage.AnyLabel), project(id("m")),
			expand("m", "x", person), countBy("m.id")},
			"NodeScan -> Expand -> Project -> Expand -> Aggregate", nil},
		{"group-leaf-under-sum", Plan{scan("f"), project(id("f"), prop("f", "age")), expand("f", "post", post),
			&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, {Func: op.Sum, Arg: "f.age", As: "s"}}}},
			"NodeScan -> Project -> Expand -> Aggregate", func(t *testing.T, p Plan) {
				if g := aggOf(p); g.KeyVar != "f" || len(g.Leaves) != 0 {
					t.Fatalf("aggregate %+v", g)
				}
			}},
		{"count-leaf-under-top-k", Plan{scan("f"), expand("f", "post", post), countBy("f"),
			&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}}, Limit: 5}},
			"NodeScan -> Expand -> AggregateProjectTop(fused)", nil},
		{"leaf-read-by-filter", Plan{scan("f"), expand("f", "post", post), project(prop("post", "creationDate")),
			&op.Filter{Pred: expr.Gt(expr.C("post.creationDate"), expr.LInt(3))}, countBy("f")},
			"NodeScan -> Expand(fused-filter) -> Aggregate", nil},
		{"leaf-under-sum", Plan{scan("f"), project(prop("f", "age")), expand("f", "post", post),
			&op.Aggregate{Aggs: []op.AggSpec{{Func: op.Sum, Arg: "f.age", As: "s"}}}},
			"NodeScan -> Project -> Expand -> Aggregate", nil},
		// (b) Gather after the cut.
		{"late", Plan{scan("f"), project(id("f"), prop("f", "name")), expand("f", "msg", storage.AnyLabel),
			project(prop("msg", "creationDate"), id("msg"), prop("msg", "content")),
			&op.Filter{Pred: expr.Lt(expr.C("msg.creationDate"), expr.LInt(9))},
			&op.OrderBy{Keys: []op.SortKey{{Col: "msg.creationDate", Desc: true}, {Col: "msg.id"}}, Limit: 20,
				Cols: []string{"f.id", "f.name", "msg.id", "msg.content", "msg.creationDate"}}},
			"NodeScan -> Expand(merge newest 20) -> Project -> OrderBy(late msg.content,f.id,f.name)", nil},
		{"late-across-expands", Plan{scan("p"), project(prop("p", "name")), expand("p", "f", person), expand("f", "g", person),
			project(id("g"), prop("g", "name")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "g.id"}}, Limit: 3, Cols: []string{"p.name", "g.id", "g.name"}}},
			"NodeScan -> Expand -> Expand -> Project -> OrderBy(late g.name,p.name)", nil},
		{"late-whole-projection", Plan{scan("f"), project(id("f")), project(prop("f", "name")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "f.id"}}, Limit: 3, Cols: []string{"f.id", "f.name"}}},
			"NodeScan -> Project -> OrderBy(late f.name)", nil},
		{"late-tie-break-key", Plan{scan("f"), project(id("f"), prop("f", "name")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "f.name"}, {Col: "f.id"}}, Limit: 5, Cols: []string{"f.id", "f.name"}}},
			"NodeScan -> Project -> OrderBy", nil},
		{"late-without-limit", Plan{scan("f"), project(id("f"), prop("f", "name")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "f.id"}}, Cols: []string{"f.id", "f.name"}}},
			"NodeScan -> Project -> OrderBy", nil},
		// (d) Groups keyed by VID.
		{"vid-key", Plan{scan("p"), expand("p", "m", post), project(id("m")), countBy("m.id")},
			"NodeScan -> Expand -> Aggregate", func(t *testing.T, p Plan) {
				if g := aggOf(p); g.KeyVar != "m" {
					t.Fatalf("aggregate %+v", g)
				}
			}},
		{"vid-key-any-label", Plan{scan("p"), expand("p", "m", storage.AnyLabel), project(id("m")), countBy("m.id")},
			"NodeScan -> Expand -> Project -> Aggregate", func(t *testing.T, p Plan) {
				if g := aggOf(p); g.KeyVar != "" {
					t.Fatalf("ids may collide across labels, but the aggregate groups by VID: %+v", g)
				}
			}},
		// (c) Groups emitted unsorted where only a later sort reads them.
		{"unordered-ic3", Plan{scan("f"), project(id("f"), prop("f", "age")), sumBy("f.id"), positive,
			&op.ProjectExpr{Expr: expr.C("s"), As: "total", Kind: vector.KindInt64},
			&op.OrderBy{Keys: []op.SortKey{{Col: "total", Desc: true}, {Col: "f.id"}}, Limit: 20}},
			"NodeScan -> Project -> Aggregate -> Filter -> ProjectExpr -> OrderBy", unordered(2, true)},
		{"sorted-last", Plan{scan("f"), project(id("f"), prop("f", "age")), sumBy("f.id")},
			"NodeScan -> Project -> Aggregate", unordered(2, false)},
		{"sorted-key-missing", Plan{scan("f"), project(id("f"), prop("f", "age")), sumBy("f.id"), positive,
			&op.OrderBy{Keys: []op.SortKey{{Col: "s", Desc: true}}, Limit: 20}},
			"NodeScan -> Project -> Aggregate -> Filter -> OrderBy", unordered(2, false)},
		{"sorted-past-limit", Plan{scan("f"), project(id("f"), prop("f", "age")), sumBy("f.id"), &op.Limit{N: 3},
			&op.OrderBy{Keys: []op.SortKey{{Col: "f.id"}}}},
			"NodeScan -> Project -> Aggregate -> Limit -> OrderBy", unordered(2, false)},
		// GES_f* fuses a pattern count's path too.
		{"pattern-count-path", Plan{scan("a"), &op.PatternCount{From: "a", As: "n", Path: []op.Operator{
			expand("a", "f", person), project(prop("f", "age")), &op.Filter{Pred: expr.Gt(expr.C("f.age"), expr.LInt(30))},
		}}}, "NodeScan -> PatternCount(n: Expand(fused-filter))", nil},
		// (e) The run cut and merge: top-k newest neighbours, the bound
		// copied into the cut. The rule reads the plan's shape alone.
		{"newest", newest(post, dateBound, "msg.creationDate"),
			"NodeScan -> Expand(merge newest 20) -> Project -> OrderBy(late f.id)",
			cut(op.Newest{K: 20, Key: "creationDate", Bounded: true, Below: 9})},
		{"newest-any-label-at-most", newest(storage.AnyLabel, expr.Le(expr.C("msg.creationDate"), expr.LDate(9)), "msg.creationDate"),
			"NodeScan -> Expand(merge newest 20) -> Project -> OrderBy(late f.id)",
			cut(op.Newest{K: 20, Key: "creationDate", Bounded: true, Inclusive: true, Below: 9})},
		// A seek's one row keeps the fused SeekExpand.
		{"newest-seek-expand", Plan{&op.NodeByIdSeek{Var: "p", Label: person, ExtID: 1}, expand("p", "msg", post),
			project(prop("msg", "creationDate"), id("msg")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "msg.creationDate", Desc: true}, {Col: "msg.id", Desc: true}}, Limit: 10,
				Cols: []string{"msg.id", "msg.creationDate"}}},
			"SeekExpand(fused) -> Project -> OrderBy", nil},
		{"newest-filter-other-column", newest(post, expr.Lt(expr.C("msg.length"), expr.LInt(9)), "msg.creationDate"),
			"NodeScan -> Expand(fused-filter) -> Project -> OrderBy(late f.id)", nil},
		{"newest-key-other-node", append(Plan{scan("f"), project(prop("f", "creationDate"))}, newest(post, nil, "f.creationDate")[1:]...),
			"NodeScan -> Project -> Expand -> Project -> OrderBy(late msg.creationDate,f.id)", nil},
		{"newest-after-defactor", append(Plan{scan("f"), &op.Defactor{Cols: []string{"f"}}}, newest(post, nil, "msg.creationDate")[2:]...),
			"NodeScan -> Defactor -> Expand -> Project -> OrderBy", nil},
		{"newest-ascending", Plan{scan("f"), expand("f", "msg", post), project(prop("msg", "creationDate"), id("msg")),
			&op.OrderBy{Keys: []op.SortKey{{Col: "msg.creationDate"}}, Limit: 20}},
			"NodeScan -> Expand -> Project -> OrderBy", nil},
	}
	run := func(cases []fuseCase, fuse func(Plan) Plan) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				before := c.in.String()
				got := fuse(c.in)
				if got.String() != c.want {
					t.Fatalf("fused plan = %s, want %s", got, c.want)
				}
				if c.in.String() != before {
					t.Fatal("Fuse mutated its input")
				}
				if c.check != nil {
					c.check(t, got)
				}
			})
		}
	}
	run(cases, Fuse)
}
