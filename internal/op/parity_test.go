package op_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ges/internal/catalog"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/paritytest"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

// The operators have one implementation per observable input condition: a
// single-family run with an empty delta is zero-copy and sorted, a delta
// overlay (storage's own or a transaction's committed edges) merges two
// cursors, the runs of several families (Both, AnyLabel) are unsorted so
// cyclic joins probe hash sets, a property overlay patches the bulk gather.
// This table runs every plan shape that reaches one of those branches over
// all four representations of one logical LDBC graph against the volcano
// oracle.

var parityLDBC struct {
	once  sync.Once
	ds    *ldbc.Dataset
	views []paritytest.View
}

// midID returns a person-ID threshold selecting roughly half the persons
// (person external IDs are 1..P).
func midID(ds *ldbc.Dataset) int64 {
	return int64(ds.Stats().Persons / 2)
}

func parityViews(t *testing.T) (*ldbc.Dataset, []paritytest.View) {
	t.Helper()
	parityLDBC.once.Do(func() { parityLDBC.ds, parityLDBC.views = paritytest.LDBCViews(t, 0.05, 7) })
	if parityLDBC.views == nil {
		t.Fatal("parity views failed to build")
	}
	return parityLDBC.ds, parityLDBC.views
}

func midDate() int64 { return (ldbc.DayStart + ldbc.DayEnd) / 2 }

// countSum closes a pattern plan with a divergence-sensitive aggregate: the
// match count plus the sum of one variable's external ids.
func countSum(v string) plan.Plan {
	return plan.Plan{
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: "v.id", ExtID: true}}},
		&op.Aggregate{Aggs: []op.AggSpec{
			{Func: op.Count, As: "n"},
			{Func: op.Sum, Arg: "v.id", As: "sum"},
		}},
	}
}

func TestOperatorParity(t *testing.T) {
	ds, views := parityViews(t)
	h := ds.H
	knows := func(from, to string) *op.Expand {
		return &op.Expand{From: from, To: to, Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person}
	}
	side := func(v string, dir catalog.Direction) op.IntersectSide {
		return op.IntersectSide{Var: v, Et: h.Knows, Dir: dir, DstLabel: h.Person}
	}
	scan := func(v string) *op.NodeScan { return &op.NodeScan{Var: v, Label: h.Person} }
	hops := func(from, to string, min, max int) *op.ExpandInto {
		return &op.ExpandInto{From: from, To: to, Et: h.Knows, Dir: catalog.Out,
			DstLabel: h.Person, SrcLabel: h.Person, MinHops: min, MaxHops: max}
	}
	// anchor20 roots the quadratic shapes at the 20 lowest-id persons: their
	// deep nodes still run to thousands of rows, at a third of the full
	// scan's cost.
	anchor20 := func(v string) plan.Plan {
		return plan.Plan{scan(v),
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: "anchor.id", ExtID: true}}},
			&op.Filter{Pred: expr.Le(expr.C("anchor.id"), expr.LInt(20))}}
	}
	pg := ds.NewParamGen(3)
	popularTag := pg.TagName()
	countryX, countryY := pg.TwoCountries()
	genderAndDate := expr.And{
		L: expr.Eq(expr.C("gender"), expr.LStr("male")),
		R: expr.Lt(expr.C("creationDate"), expr.LDate(midDate())),
	}

	// twoHop ends a two-hop pattern with every variable's id projected.
	twoHop := func(tail ...op.Operator) plan.Plan {
		return append(plan.Plan{scan("p"), knows("p", "f"), knows("f", "g"),
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "p", As: "p.id", ExtID: true}, {Var: "f", As: "f.id", ExtID: true},
				{Var: "g", As: "g.id", ExtID: true}}}}, tail...)
	}
	count := op.AggSpec{Func: op.Count, As: "n"}
	pid := &op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", As: "p.id", ExtID: true}}}
	idOf := func(v string) *op.ProjectProps {
		return &op.ProjectProps{Specs: []op.ProjSpec{{Var: v, As: v + ".id", ExtID: true}}}
	}
	likes := func(from string) *op.Expand {
		return &op.Expand{From: from, To: "liked", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel}
	}
	agg := func(fn op.AggFunc, arg string) op.AggSpec { return op.AggSpec{Func: fn, Arg: arg, As: fn.String()} }
	shapes := []struct {
		name    string
		ordered bool // the plan ends in a total order
		build   func() plan.Plan
	}{
		// Expansion: lazy, materializing (edge props + a fused vertex
		// predicate), flat, BFS levels, and the seek fusion.
		{"expand/two-hop-lazy", false, func() plan.Plan {
			return append(plan.Plan{scan("p"), knows("p", "f"), knows("f", "g")}, countSum("g")...)
		}},
		{"expand/edge-props-fused-preds", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					EdgeProps:  []op.EdgeProj{{Prop: "creationDate", As: "since"}},
					VertexPred: op.VertexPropPred(genderAndDate)},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "f", As: "f.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"p.id", "f.id", "since"}},
			}
		}},
		// The second hop's parent block is every person's friends: the
		// predicate keeps half of the neighbors, with edge-property columns
		// appended alongside. The flat mode runs the same through flat
		// Expand.
		{"expand/second-hop-fused-pred", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(midID(ds))))},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id"}},
			}
		}},
		{"expand/second-hop-fused-pred-edge-props", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(expr.Le(expr.C(op.ExtIDProp), expr.LInt(midID(ds)))),
					EdgeProps:  []op.EdgeProj{{Prop: "creationDate", As: "since"}}},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id", "since"}},
			}
		}},
		{"expand/any-label", false, func() plan.Plan {
			return append(plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel}},
				countSum("m")...)
		}},
		{"varexpand/bfs-distinct", false, func() plan.Plan {
			return append(plan.Plan{scan("p"),
				&op.VarLengthExpand{From: "p", To: "r", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 2}},
				countSum("r")...)
		}},
		// The created person sits past the base VID range on every view but
		// the reloaded one: the BFS's visited stamps must grow to reach it.
		{"varexpand/bfs-reaches-created-person", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.VarLengthExpand{From: "p", To: "r", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 2, MaxHops: 2},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "r", As: "r.id", ExtID: true}}},
				&op.Filter{Pred: expr.Eq(expr.C("r.id"), expr.LInt(paritytest.CreatedPerson))},
				&op.Defactor{Cols: []string{"p.id", "r.id"}},
			}
		}},
		{"varexpand/bfs-after-expand", false, func() plan.Plan {
			return append(plan.Plan{scan("p"), knows("p", "f"),
				&op.VarLengthExpand{From: "f", To: "g", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 1}},
				countSum("g")...)
		}},
		{"seek-expand", false, func() plan.Plan {
			return plan.Plan{
				&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: 1},
				knows("p", "f"), knows("f", "g"),
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "g", As: "g.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"g.id"}},
			}
		}},

		// Cyclic joins: cursor vs hash-set probe is chosen by Batch.Sorted.
		{"expand-into/triangle", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("b", "c"),
				&op.ExpandInto{From: "c", To: "a", Et: h.Knows, Dir: catalog.Out,
					DstLabel: h.Person, SrcLabel: h.Person}},
				countSum("c")...)
		}},
		// Both directions: each probe joins two families' runs, so it is a
		// hash set on every view.
		{"expand-into/both-directions", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("b", "c"),
				&op.ExpandInto{From: "c", To: "a", Et: h.Knows, Dir: catalog.Both,
					DstLabel: h.Person, SrcLabel: h.Person}},
				countSum("c")...)
		}},
		{"expand-into/sibling-flat", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("a", "c"),
				&op.ExpandInto{From: "b", To: "c", Et: h.Knows, Dir: catalog.Out,
					DstLabel: h.Person, SrcLabel: h.Person}},
				countSum("c")...)
		}},
		// Hop-bounded closures: a BFS from the shallow side, probed by level.
		// IC3's shape — a seek-anchored country scan (here under 20 rows),
		// messages, their creators — checks a creator within two KNOWS hops
		// of the root; a closure over a deeper From runs flat, as do
		// siblings; IC10's exactly-2 bound drops direct friends.
		{"expand-into/var-length-1..2", false, func() plan.Plan {
			return append(append(anchor20("p"), &op.NodeScan{Var: "ctry", Label: h.Country, From: "p"},
				&op.Expand{From: "ctry", To: "m", Et: h.IsLocatedIn, Dir: catalog.In, DstLabel: storage.AnyLabel},
				&op.Expand{From: "m", To: "f", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
				hops("p", "f", 1, 2)),
				countSum("f")...)
		}},
		{"expand-into/var-length-deeper-from-flat", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), hops("b", "a", 1, 2)), countSum("b")...)
		}},
		{"expand-into/var-length-exactly-2", false, func() plan.Plan {
			return append(plan.Plan{scan("a"), knows("a", "b"), knows("b", "c"), hops("a", "c", 2, 2)}, countSum("c")...)
		}},
		{"expand-into/var-length-sibling-flat", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), knows("a", "c"), hops("b", "c", 1, 2)), countSum("c")...)
		}},
		// A seek of an id no person has: an empty root, an empty scan under
		// it, no search.
		{"expand-into/var-length-unknown-source", false, func() plan.Plan {
			return append(plan.Plan{&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: -1},
				&op.NodeScan{Var: "t", Label: h.Tag, From: "p"},
				&op.Expand{From: "t", To: "post", Et: h.HasTag, Dir: catalog.In, DstLabel: h.Post},
				&op.Expand{From: "post", To: "f", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
				hops("p", "f", 1, 2)},
				countSum("f")...)
		}},
		// NodeScan under a 20-row root: each root row references the tag scan
		// as one lazy segment; the name filter keeps one tag and a name no
		// tag has.
		{"scan/under-root", false, func() plan.Plan {
			return append(anchor20("p"), &op.NodeScan{Var: "t", Label: h.Tag, From: "p"},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t", Prop: "name", As: "t.name"}}},
				&op.Filter{Pred: expr.In{X: expr.C("t.name"), List: []vector.Value{vector.String_(popularTag), vector.String_("no such tag")}}},
				&op.Expand{From: "t", To: "post", Et: h.HasTag, Dir: catalog.In, DstLabel: h.Post},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "post", As: "post.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"p.id", "t.name", "post.id"}})
		}},
		{"intersect/diamond", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), knows("b", "d"),
				&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{side("a", catalog.Out), side("d", catalog.In)}}),
				countSum("c")...)
		}},
		{"intersect/three-way-clique", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"),
				&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{side("a", catalog.Out), side("b", catalog.Out)}},
				&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{
					side("a", catalog.Out), side("b", catalog.Out), side("c", catalog.Out)}}),
				countSum("d")...)
		}},
		{"intersect/sibling-flat", false, func() plan.Plan {
			return append(append(anchor20("a"), knows("a", "b"), knows("a", "c"),
				&op.ExpandIntersect{To: "d", Sides: []op.IntersectSide{side("b", catalog.Out), side("c", catalog.Out)}}),
				countSum("d")...)
		}},
		{"intersect/any-label", false, func() plan.Plan {
			likes := func(v string) op.IntersectSide {
				return op.IntersectSide{Var: v, Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel}
			}
			return append(plan.Plan{scan("a"), knows("a", "b"),
				&op.ExpandIntersect{To: "m", Sides: []op.IntersectSide{likes("a"), likes("b")}}},
				countSum("m")...)
		}},

		// Property reads: shared columns, bulk gather, dictionary codes, the
		// range kernel, and the overlay-patched gather on the views that
		// carry one.
		{"gather/scan-filter-project", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "gender", As: "p.gender"},
					{Var: "p", Prop: "creationDate", As: "p.creationDate"},
					{Var: "p", Prop: "firstName", As: "p.firstName"},
					{Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.Eq(expr.C("p.gender"), expr.LStr("female"))},
				&op.Filter{Pred: expr.Ge(expr.C("p.creationDate"), expr.LDate(midDate()))},
				&op.Defactor{Cols: []string{"p.id", "p.firstName", "p.creationDate"}},
			}
		}},
		{"gather/never-interned-literal", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "gender", As: "p.gender"}, {Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.Ne(expr.C("p.gender"), expr.LStr("no-such-gender"))},
				&op.Defactor{Cols: []string{"p.id"}},
			}
		}},
		// Unfused scan filters through each conjunct kernel: two date ranges
		// ANDed, a dictionary-code set for IN (one literal never
		// interned) and for NE.
		{"filter/and-of-date-ranges", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "creationDate", As: "p.creationDate"}, {Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.And{
					L: expr.Ge(expr.C("p.creationDate"), expr.LDate(midDate()-200)),
					R: expr.Gt(expr.LDate(midDate()+200), expr.C("p.creationDate"))}},
				&op.Defactor{Cols: []string{"p.id", "p.creationDate"}},
			}
		}},
		{"filter/dict-in", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "browserUsed", As: "p.browserUsed"}, {Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.In{X: expr.C("p.browserUsed"),
					List: []vector.Value{vector.String_("Firefox"), vector.String_("Opera"), vector.String_("Lynx")}}},
				&op.Defactor{Cols: []string{"p.id", "p.browserUsed"}},
			}
		}},
		{"filter/dict-ne", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "browserUsed", As: "p.browserUsed"}, {Var: "p", As: "p.id", ExtID: true}}},
				&op.Filter{Pred: expr.Ne(expr.C("p.browserUsed"), expr.LStr("Chrome"))},
				&op.Defactor{Cols: []string{"p.id"}},
			}
		}},
		{"gather/fused-expand-pred", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					VertexPred: op.VertexPropPred(genderAndDate)},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"f.id"}},
			}
		}},
		// The fused predicate evaluates a whole batch through the dictionary
		// kernels: IC6's two expands off one parent (a selective = prunes the
		// posts the second expand then skips, a <> keeps most of the rest), a
		// name several labels define narrowed to the Expand's one label, and
		// AnyLabel expands narrowed to the labels present — one label (the
		// dictionary applies) or two (it does not).
		{"expand/fused-two-off-one-parent", false, func() plan.Plan {
			hasTag := func(to string, pred expr.Expr) *op.Expand {
				return &op.Expand{From: "post", To: to, Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag,
					VertexPred: op.VertexPropPred(pred)}
			}
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
				hasTag("t1", expr.Eq(expr.C("name"), expr.LStr(popularTag))),
				hasTag("t2", expr.Ne(expr.C("name"), expr.LStr(popularTag))),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "post", As: "post.id", ExtID: true}, {Var: "t2", Prop: "name", As: "t2.name"}}},
				&op.Defactor{Cols: []string{"post.id", "t2.name"}},
			}
		}},
		{"expand/fused-name-on-several-labels", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				&op.Expand{From: "m", To: "c", Et: h.IsLocatedIn, Dir: catalog.Out, DstLabel: h.Country,
					VertexPred: op.VertexPropPred(expr.In{X: expr.C("name"),
						List: []vector.Value{vector.String_(countryX), vector.String_(countryY)}})},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "m", As: "m.id", ExtID: true}, {Var: "c", Prop: "name", As: "c.name"}}},
				&op.Defactor{Cols: []string{"m.id", "c.name"}},
			}
		}},
		{"expand/fused-any-label-one-present", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.Expand{From: "p", To: "t", Et: h.HasInterest, Dir: catalog.Out, DstLabel: storage.AnyLabel,
					VertexPred: op.VertexPropPred(expr.Ne(expr.C("name"), expr.LStr(popularTag)))},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "t", Prop: "name", As: "t.name"}}},
				&op.Defactor{Cols: []string{"p.id", "t.name"}},
			}
		}},
		// From every person's friends: the labels narrow batch by batch.
		{"expand/fused-any-label-mixed", false, func() plan.Plan {
			return plan.Plan{scan("f"), knows("f", "p"),
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel,
					VertexPred: op.VertexPropPred(expr.And{
						L: expr.Lt(expr.C("creationDate"), expr.LDate(midDate())),
						R: expr.Ne(expr.C("browserUsed"), expr.LStr("Chrome"))})},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", As: "p.id", ExtID: true}, {Var: "m", As: "m.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"p.id", "m.id"}},
			}
		}},
		// IC9's shape: a date several labels define (Person, Post, Comment,
		// Forum) under AnyLabel narrows to the two message labels the pieces
		// carry; a non-string column keeps its face.
		{"expand/fused-any-label-date", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel,
					VertexPred: op.VertexPropPred(expr.Lt(expr.C("creationDate"), expr.LDate(midDate())))},
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "f", As: "f.id", ExtID: true}, {Var: "m", As: "m.id", ExtID: true}}},
				&op.Defactor{Cols: []string{"f.id", "m.id"}},
			}
		}},
		{"gather/lazy-column-props", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "f", Prop: "firstName", As: "f.firstName"},
					{Var: "f", Prop: "creationDate", As: "f.creationDate"}}},
				&op.Defactor{Cols: []string{"f.firstName", "f.creationDate"}},
			}
		}},
		// Gather, the int filter kernel and the de-factor over every person's
		// friends.
		{"gather/second-hop-project-filter-defactor", false, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "f", As: "f.id", ExtID: true},
					{Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Filter{Pred: expr.Le(expr.C("f.id"), expr.LInt(midID(ds)))},
				&op.Defactor{Cols: []string{"f.id", "f.firstName"}},
			}
		}},
		{"gather/top-k", true, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{
					{Var: "p", Prop: "creationDate", As: "p.creationDate"},
					{Var: "p", Prop: "firstName", As: "p.firstName"},
					{Var: "p", As: "p.id", ExtID: true}}},
				&op.OrderBy{
					Keys:  []op.SortKey{{Col: "p.creationDate", Desc: true}, {Col: "p.firstName"}, {Col: "p.id"}},
					Limit: 17,
					Cols:  []string{"p.id", "p.firstName", "p.creationDate"}},
			}
		}},
		{"gather/dict-group-by", true, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "browserUsed", As: "p.browserUsed"}}},
				&op.AggregateProjectTop{
					Aggregate: op.Aggregate{GroupBy: []string{"p.browserUsed"}, Aggs: []op.AggSpec{{Func: op.Count, As: "n"}}},
					Keys:      []op.SortKey{{Col: "n", Desc: true}, {Col: "p.browserUsed"}},
					Limit:     10},
			}
		}},

		// Aggregation over the f-Tree: COUNT(*) anchors at the root, arguments
		// and group keys on one node fold that node weighted, anything spanning
		// sibling nodes — and a float SUM/AVG, which must add in enumeration
		// order — folds the tuples' row indices, each of weight 1.
		{"agg/count-star-two-hop", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{count}})
		}},
		{"agg/count-star-var-length", false, func() plan.Plan {
			return plan.Plan{scan("p"),
				&op.VarLengthExpand{From: "p", To: "r", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
					MinHops: 1, MaxHops: 2},
				&op.Aggregate{Aggs: []op.AggSpec{count}}}
		}},
		{"agg/sum-leaf", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{agg(op.Sum, "g.id")}})
		}},
		{"agg/group-by-middle", false, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "f.id")}})
		}},
		{"agg/group-by-middle-sum-leaf", false, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "g.id")}})
		}},
		{"agg/min-max-avg-distinct", false, func() plan.Plan {
			return twoHop(&op.Aggregate{Aggs: []op.AggSpec{agg(op.Min, "g.id"), agg(op.Max, "g.id"),
				agg(op.Avg, "g.id"), agg(op.CountDistinct, "g.id")}})
		}},
		{"agg/empty-input", false, func() plan.Plan {
			return twoHop(&op.Filter{Pred: expr.Lt(expr.C("p.id"), expr.LInt(0))},
				&op.Aggregate{Aggs: []op.AggSpec{count, agg(op.Min, "g.id"), agg(op.Sum, "g.id")}})
		}},
		// The weighted fold's key modes and typed slabs, with weights above 1
		// from g's fan-out: a dictionary-coded key holding the created
		// person's first name, which a commit interned after the seal; a
		// plain string key on a de-factored tree; date MIN and MAX
		// and an integer SUM; and MIN and MAX over no rows, which stay null.
		{"agg/dict-key-interned-after-seal", true, func() plan.Plan {
			return twoHop(&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Aggregate{GroupBy: []string{"f.firstName"}, Aggs: []op.AggSpec{count, agg(op.Min, "p.id"), agg(op.Sum, "f.id")}})
		}},
		{"agg/flat-string-key", true, func() plan.Plan {
			return twoHop(&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Defactor{Cols: []string{"f.firstName", "p.id", "g.id"}},
				&op.Aggregate{GroupBy: []string{"f.firstName"}, Aggs: []op.AggSpec{count, agg(op.Max, "p.id"), agg(op.Sum, "g.id")}})
		}},
		{"agg/weighted-date-min-max-int-sum", true, func() plan.Plan {
			return twoHop(&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "creationDate", As: "f.creationDate"}}},
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count,
					agg(op.Min, "f.creationDate"), agg(op.Max, "f.creationDate"), agg(op.Sum, "f.id")}})
		}},
		{"agg/empty-input-min-max", true, func() plan.Plan {
			return twoHop(&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", Prop: "creationDate", As: "f.creationDate"}, {Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Filter{Pred: expr.Lt(expr.C("p.id"), expr.LInt(0))},
				&op.Aggregate{Aggs: []op.AggSpec{count, agg(op.Min, "f.creationDate"), agg(op.Max, "f.creationDate"),
					{Func: op.Min, Arg: "f.firstName", As: "minName"}, {Func: op.Max, Arg: "f.firstName", As: "maxName"}}})
		}},
		// The null a global MIN or MAX over no rows yields, carried by its
		// typed column through a Filter that reads it (the range kernel
		// takes a column with nulls by Get), a ProjectExpr that copies it and
		// one that adds to it, an OrderBy on it and a Limit.
		{"null/empty-min-max-through-row-operators", true, func() plan.Plan {
			return twoHop(&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", Prop: "firstName", As: "f.firstName"}}},
				&op.Filter{Pred: expr.Lt(expr.C("p.id"), expr.LInt(0))},
				&op.Aggregate{Aggs: []op.AggSpec{count, agg(op.Min, "g.id"), {Func: op.Max, Arg: "f.firstName", As: "maxName"}}},
				// A null orders below every integer, so it passes < 0; the
				// zero its row holds would not.
				&op.Filter{Pred: expr.And{L: expr.Eq(expr.C("n"), expr.LInt(0)), R: expr.Lt(expr.C("min"), expr.LInt(0))}},
				&op.ProjectExpr{Expr: expr.C("maxName"), As: "name", Kind: vector.KindString},
				&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.C("min"), R: expr.LInt(1)}, As: "next", Kind: vector.KindInt64},
				&op.OrderBy{Keys: []op.SortKey{{Col: "min"}, {Col: "name", Desc: true}}},
				&op.Limit{N: 1, Cols: []string{"min", "name", "next", "n"}})
		}},
		// Distinct over a multi-node tree, narrowed to columns of two nodes,
		// and over a de-factored tree's every column.
		{"distinct/two-hop-narrowed", false, func() plan.Plan {
			return twoHop(&op.Distinct{Cols: []string{"g.id", "p.id"}})
		}},
		{"distinct/defactored-all-columns", false, func() plan.Plan {
			return twoHop(&op.Defactor{Cols: []string{"f.id", "g.id"}}, &op.Distinct{})
		}},
		// Count-only leaves (GES_f* turns an expand nothing reads below a
		// counting aggregate into its parent's run lengths): runs of several
		// families (Both, AnyLabel), KNOWS runs the overlay views' deltas
		// touch, two leaves on one node whose weights multiply, a leaf on a
		// de-factored tree, and the top-k over groups keyed by VID. The aggregate
		// emits in group-key order, so every row is ordered.
		{"count-leaf/both", true, func() plan.Plan {
			return plan.Plan{scan("p"), &op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Both, DstLabel: h.Person},
				pid, &op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count, agg(op.Max, "p.id")}}}
		}},
		{"count-leaf/any-label", true, func() plan.Plan {
			return plan.Plan{scan("p"), pid,
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel},
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count}}}
		}},
		{"count-leaf/two-leaves-delta-runs", true, func() plan.Plan {
			return plan.Plan{scan("p"), pid, knows("p", "f"),
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel},
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count, agg(op.CountDistinct, "p.id")}}}
		}},
		{"count-leaf/global-under-hop", true, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), knows("f", "g"),
				&op.Aggregate{Aggs: []op.AggSpec{count}}}
		}},
		{"count-leaf/flat", true, func() plan.Plan {
			return plan.Plan{scan("p"), pid, &op.Defactor{Cols: []string{"p", "p.id"}},
				knows("p", "f"), &op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count}}}
		}},
		{"count-leaf/top-k-by-vid", true, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), pid,
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count}},
				&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}, {Col: "p.id"}}, Limit: 15}}
		}},
		// A leaf on the group key runs once per group (GES_f*): keys reached
		// by several tuples, persons who studied nowhere (a third of them,
		// whose groups vanish), two leaves on the key, aggregates a weight
		// does not scale beside the count, and a top-k over the per-group
		// count.
		{"count-leaf/per-group-multiplicity", true, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), knows("f", "g"), idOf("g"), likes("g"),
				&op.Aggregate{GroupBy: []string{"g.id"}, Aggs: []op.AggSpec{count}})
		}},
		{"count-leaf/per-group-empty-runs", true, func() plan.Plan {
			return plan.Plan{scan("p"), pid,
				&op.Expand{From: "p", To: "u", Et: h.StudyAt, Dir: catalog.Out, DstLabel: h.University},
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count}}}
		}},
		{"count-leaf/per-group-two-leaves", true, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), idOf("f"), likes("f"),
				&op.Expand{From: "f", To: "w", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count}})
		}},
		{"count-leaf/per-group-beside-distinct-min-max", true, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), knows("f", "g"),
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}, {Var: "g", As: "g.id", ExtID: true}}},
				likes("g"), &op.Aggregate{GroupBy: []string{"g.id"}, Aggs: []op.AggSpec{
					count, agg(op.CountDistinct, "f.id"), agg(op.Min, "anchor.id"), agg(op.Max, "f.id")}})
		}},
		{"count-leaf/per-group-top-k", true, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), knows("f", "g"), idOf("g"), likes("g"),
				&op.Aggregate{GroupBy: []string{"g.id"}, Aggs: []op.AggSpec{count}},
				&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}, {Col: "g.id"}}, Limit: 15})
		}},
		// Groups emitted unsorted (GES_f*) where a later sort by every group
		// column decides their order; a sort by the count alone cuts inside
		// ties, which group key order breaks.
		{"agg/unordered-filter-order-by", true, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "g.id")}},
				&op.Filter{Pred: expr.Gt(expr.C("n"), expr.LInt(3))},
				&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}, {Col: "f.id"}}})
		}},
		{"agg/sorted-order-by-ties", true, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count}},
				&op.Filter{Pred: expr.Gt(expr.C("n"), expr.LInt(3))},
				&op.OrderBy{Keys: []op.SortKey{{Col: "n", Desc: true}}, Limit: 25})
		}},
		{"agg/unordered-two-keys-order-by", true, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), &op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", Prop: "gender", As: "f.gender"}, {Var: "f", Prop: "browserUsed", As: "f.browserUsed"}}},
				&op.Aggregate{GroupBy: []string{"f.browserUsed", "f.gender"}, Aggs: []op.AggSpec{count}},
				&op.Filter{Pred: expr.Gt(expr.C("n"), expr.LInt(0))},
				&op.OrderBy{Keys: []op.SortKey{{Col: "f.gender"}, {Col: "n"}, {Col: "f.browserUsed"}}}}
		}},
		// Path folds: every group-by and argument column on one root-to-leaf
		// chain folds the deepest node's rows through parent-row maps; a
		// sibling branch enumerates.
		{"agg/path-fold-three-levels", true, func() plan.Plan {
			return twoHop(&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "g.id"), agg(op.Min, "f.id")}})
		}},
		{"agg/sibling-branches", true, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"),
				&op.Expand{From: "p", To: "m", Et: h.Likes, Dir: catalog.Out, DstLabel: storage.AnyLabel},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}, {Var: "m", As: "m.id", ExtID: true}}},
				&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "m.id")}}}
		}},
		// COUNT { pattern } per row of From's node: rows with no match kept
		// with 0 (a third of persons studied nowhere), a path reading a
		// variable above From, a filter that rejects every match of most
		// persons, flat input, From under a multi-row parent with a child of
		// its own, and intersections whose base and probe runs hold parallel
		// edges (a post tagged twice, an interest listed twice): the base
		// side counts each, a probe side once.
		{"pattern-count/no-match", false, func() plan.Plan {
			return plan.Plan{scan("p"), pid, &op.PatternCount{From: "p", As: "n", Path: []op.Operator{
				&op.Expand{From: "p", To: "u", Et: h.StudyAt, Dir: catalog.Out, DstLabel: h.University}}},
				&op.Defactor{Cols: []string{"p.id", "n"}}}
		}},
		{"pattern-count/reads-above-from", false, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), idOf("f"),
				&op.PatternCount{From: "f", As: "common", Path: []op.Operator{
					&op.ExpandIntersect{To: "c", Sides: []op.IntersectSide{side("f", catalog.Out), side("p", catalog.Out)}}}},
				&op.Defactor{Cols: []string{"anchor.id", "f.id", "common"}})
		}},
		{"pattern-count/filter-rejects-all", false, func() plan.Plan {
			return plan.Plan{scan("p"), pid, &op.PatternCount{From: "p", As: "n", Path: []op.Operator{
				&op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "m", Prop: "creationDate", As: "m.creationDate"}}},
				&op.Filter{Pred: expr.Lt(expr.C("m.creationDate"), expr.LDate(ldbc.DayStart+60))}}},
				&op.Defactor{Cols: []string{"p.id", "n"}}}
		}},
		{"pattern-count/flat", false, func() plan.Plan {
			return plan.Plan{scan("p"), pid, &op.Defactor{Cols: []string{"p", "p.id"}},
				&op.PatternCount{From: "p", As: "n", Path: []op.Operator{knows("p", "f")}},
				&op.Defactor{Cols: []string{"p.id", "n"}}}
		}},
		{"pattern-count/multi-row-parent", true, func() plan.Plan {
			return append(anchor20("p"), knows("p", "f"), knows("f", "g"),
				&op.PatternCount{From: "f", As: "n", Path: []op.Operator{likes("f")}},
				&op.Aggregate{GroupBy: []string{"anchor.id"}, Aggs: []op.AggSpec{count, agg(op.Sum, "n")}})
		}},
		{"pattern-count/parallel-edges", false, func() plan.Plan {
			tagged := op.IntersectSide{Var: "m", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag}
			interest := op.IntersectSide{Var: "p", Et: h.HasInterest, Dir: catalog.Out, DstLabel: h.Tag}
			posts := &op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post}
			return plan.Plan{scan("p"), pid,
				&op.PatternCount{From: "p", As: "byTag", Path: []op.Operator{posts,
					&op.ExpandIntersect{To: "t", Sides: []op.IntersectSide{tagged, interest}}}},
				&op.PatternCount{From: "p", As: "byInterest", Path: []op.Operator{posts,
					&op.ExpandIntersect{To: "t", Sides: []op.IntersectSide{interest, tagged}}}},
				&op.Defactor{Cols: []string{"p.id", "byTag", "byInterest"}}}
		}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) { paritytest.Sweep(t, views, sh.build, sh.ordered) })
	}

	// Rows whose answer depends on the order a view lists neighbors in, so
	// each view is checked against the oracle on its own. LIMIT without ORDER
	// BY de-factors only its columns and stops after SKIP + LIMIT tuples.
	limit := func(n, skip int) func() plan.Plan {
		return func() plan.Plan { return twoHop(&op.Limit{N: n, Skip: skip, Cols: []string{"g.id", "p.id"}}) }
	}
	// An ORDER BY whose keys repeat, cut by its LIMIT inside a group of equal
	// keys: the kept tuples of that group are the first in input order, and
	// they come out in input order, as a stable sort followed by truncation
	// would have them.
	props := func(v string, names ...string) *op.ProjectProps {
		specs := []op.ProjSpec{{Var: v, As: v + ".id", ExtID: true}}
		for _, n := range names {
			specs = append(specs, op.ProjSpec{Var: v, Prop: n, As: v + "." + n})
		}
		return &op.ProjectProps{Specs: specs}
	}
	degree := func(limit int) func() plan.Plan {
		return func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), props("f"),
				&op.AggregateProjectTop{Aggregate: op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{count}},
					Keys: []op.SortKey{{Col: "n", Desc: true}}, Limit: limit}}
		}
	}
	perView := []struct {
		name    string
		ordered bool
		rows    int // -1: not pinned
		build   func() plan.Plan
	}{
		{"agg/float-sum", false, -1, func() plan.Plan {
			return twoHop(
				// On the middle node, where a row stands for several tuples.
				&op.ProjectExpr{Expr: expr.Arith{Op: expr.Mul, L: expr.C("f.id"), R: expr.Lit{Val: vector.Float64(0.1)}},
					As: "f.w", Kind: vector.KindFloat64},
				&op.Aggregate{Aggs: []op.AggSpec{agg(op.Sum, "f.w"), agg(op.Avg, "f.w")}})
		}},
		{"limit/zero", false, 0, limit(0, 0)},
		{"limit/one", false, 1, limit(1, 0)},
		{"limit/skip-window", false, 50, limit(50, 100)},
		{"limit/skip-past-end", false, 0, limit(5, 1<<30)},
		{"limit/skip-every-node", false, 30, func() plan.Plan {
			return twoHop(&op.Limit{N: 30, Skip: 7, Cols: []string{"g.id", "f", "p.id", "f.id"}})
		}},
		{"order-ties/single-node", true, 10, func() plan.Plan {
			return plan.Plan{scan("p"), props("p", "gender"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "p.gender", Desc: true}}, Limit: 10, Cols: []string{"p.id", "p.gender"}}}
		}},
		{"order-ties/multi-node", true, 40, func() plan.Plan {
			return plan.Plan{scan("p"), props("p", "browserUsed"), knows("p", "f"), props("f", "gender"),
				knows("f", "g"), props("g"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "f.gender"}, {Col: "p.browserUsed", Desc: true}}, Limit: 40,
					Cols: []string{"g.id", "f.id", "p.id"}}}
		}},
		{"order-ties/flat-after-join", true, 20, func() plan.Plan {
			return plan.Plan{scan("q"), props("q", "browserUsed"), knows("q", "p"), props("p", "gender"),
				&op.Defactor{Cols: []string{"p.id", "p.gender", "q.id", "q.browserUsed"}},
				&op.OrderBy{Keys: []op.SortKey{{Col: "q.browserUsed"}, {Col: "p.gender"}}, Limit: 20,
					Cols: []string{"p.id", "q.id"}}}
		}},
		// Gather after the cut: late columns over Post ∪ Comment (a string
		// property of several labels, and ids that may tie across them), on
		// an f-Tree and on a de-factored tree.
		{"late/multi-label-string", true, 40, func() plan.Plan {
			return plan.Plan{scan("p"), props("p", "firstName"),
				&op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				props("m", "creationDate", "content"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id"}}, Limit: 40,
					Cols: []string{"p.id", "p.firstName", "m.id", "m.content", "m.creationDate"}}}
		}},
		{"late/flat-after-join", true, 20, func() plan.Plan {
			return plan.Plan{scan("q"), props("q", "browserUsed"), knows("q", "p"), props("p", "gender"),
				&op.Defactor{Cols: []string{"p", "p.id", "p.gender", "q.id", "q.browserUsed"}},
				&op.ProjectProps{Specs: []op.ProjSpec{{Var: "p", Prop: "lastName", As: "p.lastName"}}},
				&op.OrderBy{Keys: []op.SortKey{{Col: "q.browserUsed"}, {Col: "p.gender"}}, Limit: 20,
					Cols: []string{"p.id", "q.id", "p.lastName"}}}
		}},
		// A path fold next to a float SUM: a float over several nodes stays
		// on the enumeration, whose order the float rounding follows.
		{"agg/path-fold-float-sum", false, -1, func() plan.Plan {
			return twoHop(
				&op.ProjectExpr{Expr: expr.Arith{Op: expr.Mul, L: expr.C("f.id"), R: expr.Lit{Val: vector.Float64(0.1)}},
					As: "f.w", Kind: vector.KindFloat64},
				&op.Aggregate{GroupBy: []string{"p.id"}, Aggs: []op.AggSpec{agg(op.Sum, "g.id"), {Func: op.Sum, Arg: "f.w", As: "fsum"}}})
		}},
		{"order-ties/aggregate-top-1", true, 1, degree(1)},
		{"order-ties/aggregate-top-k", true, 7, degree(7)},
		{"order-ties/aggregate-all", true, -1, degree(0)},
		// The run cut and merge (Expand.Newest, fused mode only): newest
		// messages of friends, every view's tail messages — the post and the
		// comment CreatedMessage, tied on date and id — inside the window.
		// Many persons share a friend, so whole tuples tie too.
		{"newest/ties-at-cut", true, newestTieK, newestRow(h, nil, newestTieK)},
		{"newest/before-date", true, 25, newestRow(h, expr.Lt(expr.C("m.creationDate"), expr.LDate(ldbc.DayStart+200)), 25)},
		{"newest/at-most-date-k-past-all", true, -1, newestRow(h, expr.Le(expr.C("m.creationDate"), expr.LDate(ldbc.DayStart+120)), 1<<20)},
		// A filter keeping one reader after every reader's friends are
		// expanded leaves friends whose reader takes part in no tuple: their
		// messages must not count toward the cut.
		{"newest/readers-filtered-late", true, 20, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), props("p"),
				&op.Filter{Pred: expr.Eq(expr.C("p.id"), expr.LInt(1))},
				&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				props("m", "creationDate"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id"}}, Limit: 20,
					Cols: []string{"p.id", "m.id", "m.creationDate"}}}
		}},
		// Persons are not laid out by their creation date: every friend's
		// key is loose.
		{"newest/unclustered-label", true, 20, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), props("f", "creationDate"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "f.creationDate", Desc: true}, {Col: "f.id"}}, Limit: 20,
					Cols: []string{"f.id", "f.creationDate"}}}
		}},
		// A de-factored input keeps the plain expand.
		{"newest/flat", true, 30, func() plan.Plan {
			return plan.Plan{scan("p"), knows("p", "f"), &op.Defactor{Cols: []string{"f"}},
				&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				props("m", "creationDate"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id"}}, Limit: 30,
					Cols: []string{"m.id", "m.creationDate"}}}
		}},
		{"newest/seek-creator", true, 12, func() plan.Plan {
			return plan.Plan{&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: creatorExt(ds)},
				&op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				props("m", "creationDate", "content"),
				&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id", Desc: true}}, Limit: 12,
					Cols: []string{"m.id", "m.content", "m.creationDate"}}}
		}},
		{"newest/seek-reader", true, -1, func() plan.Plan {
			return plan.Plan{&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: paritytest.CreatedPerson},
				knows("p", "f"), props("f", "firstName"),
				&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
				props("m", "creationDate", "content"),
				&op.Filter{Pred: expr.Le(expr.C("m.creationDate"), expr.LDate(paritytest.CreatedMessageDate))},
				&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id"}}, Limit: 20,
					Cols: []string{"f.id", "f.firstName", "m.id", "m.content", "m.creationDate"}}}
		}},
	}
	for _, sh := range perView {
		sh := sh
		t.Run(sh.name, func(t *testing.T) { paritytest.SweepViews(t, views, sh.build, sh.ordered, sh.rows) })
	}
}

// newestTieK cuts newest/ties-at-cut inside a group of equal dates
// (TestNewestRowsReachTheirCases).
const newestTieK = 90

// newestRow is every person's friends' messages, newest first (and by id),
// optionally filtered on the date, cut at k: the shape the run cut and merge
// serves.
func newestRow(h *ldbc.Handles, pred expr.Expr, k int) func() plan.Plan {
	return func() plan.Plan {
		p := plan.Plan{&op.NodeScan{Var: "p", Label: h.Person},
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "m", Prop: "creationDate", As: "m.creationDate"},
				{Var: "m", As: "m.id", ExtID: true}}}}
		if pred != nil {
			p = append(p, &op.Filter{Pred: pred})
		}
		return append(p, &op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id"}}, Limit: k,
			Cols: []string{"m.id", "m.creationDate"}})
	}
}

// creatorExt is the external id of the person who wrote CreatedMessage.
func creatorExt(ds *ldbc.Dataset) int64 {
	ext := make([]int64, 1)
	ds.Graph.GatherExtIDs(ds.Persons[5:6], nil, ext)
	return ext[0]
}

// TestNewestRowsReachTheirCases pins the premises of the newest/ parity rows:
// fused, each runs the cut and merge; persons have no clustering key;
// ties-at-cut cuts inside a group of
// equal dates; the seek rows return the post and the comment CreatedMessage,
// a full (date, id) tie; and before-date has readers whose friends wrote
// nothing before its date.
func TestNewestRowsReachTheirCases(t *testing.T) {
	ds, views := parityViews(t)
	h, view := ds.H, views[0].View
	rows := func(p plan.Plan) [][]vector.Value {
		res, err := exec.New(exec.ModeFactorized).Run(view, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Block.Rows
	}
	for _, b := range []func() plan.Plan{newestRow(h, nil, 1), newestRow(h, expr.Lt(expr.C("m.creationDate"), expr.LDate(9)), 1)} {
		if got := exec.Physical(exec.ModeFused, b()).String(); !strings.Contains(got, "merge newest") {
			t.Fatalf("fused plan %s runs no merge", got)
		}
	}
	if _, key := view.Clustered(h.Person); key != nil {
		t.Fatal("newest/unclustered-label: persons are laid out by a key")
	}
	all := rows(newestRow(h, nil, newestTieK+1)())
	if len(all) <= newestTieK || all[newestTieK-1][1] != all[newestTieK][1] {
		t.Fatalf("newest/ties-at-cut: rows %d and %d of %d differ in date; the cut falls between groups", newestTieK, newestTieK+1, len(all))
	}
	created := 0
	for _, r := range rows(plan.Plan{&op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: creatorExt(ds)},
		&op.Expand{From: "p", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "m", As: "m.id", ExtID: true}, {Var: "m", Prop: "creationDate", As: "m.creationDate"}}},
		&op.OrderBy{Keys: []op.SortKey{{Col: "m.creationDate", Desc: true}, {Col: "m.id", Desc: true}}, Limit: 12, Cols: []string{"m.id", "m.creationDate"}},
	}) {
		if r[0].I == paritytest.CreatedMessage {
			created++
		}
	}
	if created < 2 {
		t.Fatalf("the newest rows hold %d of the created post and comment", created)
	}
	silent := rows(plan.Plan{&op.NodeScan{Var: "p", Label: h.Person},
		&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
		&op.Expand{From: "f", To: "m", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: "m", Prop: "creationDate", As: "m.creationDate"}, {Var: "f", As: "f.id", ExtID: true}}},
		&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{{Func: op.Min, Arg: "m.creationDate", As: "first"}}},
		&op.Filter{Pred: expr.Ge(expr.C("first"), expr.LDate(ldbc.DayStart+200))},
	})
	if len(silent) == 0 {
		t.Fatal("newest/before-date: every friend wrote before the date")
	}
}

// TestParityViewsReachFallbacks pins the premise of the table above: the
// views differ in exactly the observable conditions the operators branch on,
// and every view serves the runs of several families unsorted — which is
// what sends ExpandInto's "expand-into/both-directions" probes and
// ExpandIntersect's "intersect/any-label" sides to their hash sets. Only the
// overlay views (whose adds touch every person's run) own merged pieces; on
// the others every piece views the image. Each view builds its batches by
// another path — an image resealed over the commit, an image its first read
// seals from a loaded edge log, an image merged with a delta, and a delta
// filtered by a snapshot's version — and all four hold one logical graph, so
// every request reads the same pieces, props included, on all of them
// (viewPieces). The batch contract itself is checked against an edge-list
// model in internal/storage and internal/txn.
func TestParityViewsReachFallbacks(t *testing.T) {
	ds, views := parityViews(t)
	h := ds.H
	merges := map[string]bool{
		"sealed":        false,
		"unsealed":      false, // sealed by its first read, deltas empty
		"delta-overlay": true,
		"txn-overlay":   true, // committed edges are delta entries too
	}
	type request struct {
		et        catalog.EdgeTypeID
		dir       catalog.Direction
		dst       catalog.LabelID
		withProps bool
	}
	requests := []request{
		{h.Knows, catalog.Out, h.Person, true},
		{h.Knows, catalog.Both, h.Person, true},
		{h.Likes, catalog.Out, storage.AnyLabel, true},
		{h.HasCreator, catalog.In, storage.AnyLabel, false},
	}
	var want [][]string // per request, the first view's pieces
	for _, v := range views {
		persons := v.View.ScanLabel(h.Person)
		batches := make([]*storage.Batch, len(requests))
		for i, r := range requests {
			var b storage.Batch
			v.View.NeighborsBatch(persons, r.et, r.dir, r.dst, r.withProps, &b)
			batches[i] = &b
			got := viewPieces(v.View, &b, persons, r.et, r.withProps)
			if len(want) < len(requests) {
				want = append(want, got)
			} else if !slices.Equal(got, want[i]) {
				k := 0
				for k < min(len(got), len(want[i])) && got[k] == want[i][k] {
					k++
				}
				t.Errorf("%s: et=%d dir=%v dst=%v reads %d pieces, %s %d; first difference at %d:\n%v\nwant\n%v",
					v.Name, r.et, r.dir, r.dst, len(got), views[0].Name, len(want[i]), k, got[k:min(k+1, len(got))], want[i][k:min(k+1, len(want[i]))])
			}
		}
		b := batches[0]
		owned := 0
		for _, p := range b.Pieces {
			if int(p.Lo) >= len(b.VIDs) || &b.PieceVIDs(p)[0] != &b.VIDs[p.Lo] {
				owned++
			}
		}
		if !b.Sorted || (owned > 0) != merges[v.Name] {
			t.Errorf("%s: KNOWS batch Sorted=%v with %d of %d pieces owned", v.Name, b.Sorted, owned, len(b.Pieces))
		}
		if batches[1].Sorted {
			t.Errorf("%s: KNOWS Both batch is Sorted; ExpandInto's hash-set probe would go unreached", v.Name)
		}
		if batches[2].Sorted {
			t.Errorf("%s: LIKES AnyLabel batch is Sorted; ExpandIntersect's unsorted-side probe would go unreached", v.Name)
		}
	}
}

// viewPieces renders b, a read of srcs over et, one sorted line per piece in
// external ids — the source, the destination label, the neighbours and each
// edge's properties — so that views which number one graph's vertices
// differently, or create its families in another order, render alike.
func viewPieces(v storage.View, b *storage.Batch, srcs []vector.VID, et catalog.EdgeTypeID, withProps bool) []string {
	var out []string
	for _, p := range testgraph.Pieces(v, b, srcs, et, withProps) {
		// The neighbours' ids, then the source's, in one gather.
		vids := make([]vector.VID, 0, len(p.Edges)+1)
		props := make([][]vector.Value, len(p.Edges))
		for k, e := range p.Edges {
			vids, props[k] = append(vids, e.Dst), e.Props
		}
		vids = append(vids, srcs[p.Row])
		ids := make([]int64, len(vids))
		v.GatherExtIDs(vids, nil, ids)
		out = append(out, fmt.Sprintf("src %d label %d %v %v", ids[len(p.Edges)], p.Label, ids[:len(p.Edges)], props))
	}
	slices.Sort(out)
	return out
}
