package queries

import (
	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Shared plan fragments.

func seekPerson(h *ldbc.Handles, ext int64) op.Operator {
	return &op.NodeByIdSeek{Var: "p", Label: h.Person, ExtID: ext}
}

func friends(h *ldbc.Handles, from, to string, minHops, maxHops int) op.Operator {
	return &op.VarLengthExpand{From: from, To: to, Et: h.Knows, Dir: catalog.Out,
		DstLabel: h.Person, MinHops: minHops, MaxHops: maxHops}
}

// withinTwoHops keeps the tuples whose to-vertex is a friend of from within
// two KNOWS hops: one BFS from from's vertex, probed by level.
func withinTwoHops(h *ldbc.Handles, from, to string) op.Operator {
	return &op.ExpandInto{From: from, To: to, Et: h.Knows, Dir: catalog.Out,
		DstLabel: h.Person, SrcLabel: h.Person, MinHops: 1, MaxHops: 2}
}

// scanNamed binds v to the vertices of label whose name passes pred — the
// country or tag a query names — as a child of the start person: a scan of
// the (small) dimension label, filtered on its own node.
func scanNamed(label catalog.LabelID, v string, pred func(expr.Expr) expr.Expr) []op.Operator {
	return []op.Operator{
		&op.NodeScan{Var: v, Label: label, From: "p"},
		&op.ProjectProps{Specs: []op.ProjSpec{{Var: v, Prop: "name", As: v + ".name"}}},
		&op.Filter{Pred: pred(expr.C(v + ".name"))},
	}
}

func personCols(v string) *op.ProjectProps {
	return &op.ProjectProps{Specs: []op.ProjSpec{
		{Var: v, As: v + ".id", ExtID: true},
		{Var: v, Prop: "firstName", As: v + ".firstName"},
		{Var: v, Prop: "lastName", As: v + ".lastName"},
	}}
}

// IC1 — friends (up to 3 hops) with a given first name, their profile,
// ordered by last name and id. (SNB additionally orders by hop distance;
// distance bookkeeping is omitted — the traversal and filter shape is
// unchanged.)
var IC1 = register(&Query{
	Name: "IC1", Kind: IC, Freq: 26,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId":  vector.Int64(pg.PersonExt()),
			"firstName": vector.String_(pg.FirstName()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			friends(h, "p", "f", 1, 3),
			personCols("f"),
			&op.Filter{Pred: expr.Eq(expr.C("f.firstName"), expr.LStr(p.Str("firstName")))},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", Prop: "birthday", As: "f.birthday"},
				{Var: "f", Prop: "browserUsed", As: "f.browser"},
			}},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "f.lastName"}, {Col: "f.id"}},
				Limit: 20,
				Cols:  []string{"f.id", "f.lastName", "f.birthday", "f.browser"},
			},
		}
	},
})

// IC2 — recent messages (creationDate <= D) by direct friends, newest
// first, top 20.
var IC2 = register(&Query{
	Name: "IC2", Kind: IC, Freq: 37,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"maxDate":  vector.Date(pg.Date()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			personCols("f"),
			&op.Expand{From: "f", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "msg", Prop: "creationDate", As: "msg.creationDate"},
				{Var: "msg", As: "msg.id", ExtID: true},
				{Var: "msg", Prop: "content", As: "msg.content"},
			}},
			&op.Filter{Pred: expr.Le(expr.C("msg.creationDate"), expr.LDate(p.Int("maxDate")))},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "msg.creationDate", Desc: true}, {Col: "msg.id"}},
				Limit: 20,
				Cols:  []string{"f.id", "f.firstName", "f.lastName", "msg.id", "msg.content", "msg.creationDate"},
			},
		}
	},
})

// IC3 — friends (1..2 hops) with messages in two given countries, ranked
// by how many. The plan starts at the two named countries, not at the
// person: the country node (24 rows, 2 kept by name) carries the 0/1
// columns isX and isY, each country's messages expand in reverse to their
// creators, and one hop-bounded ExpandInto keeps a creator that is a friend
// within two hops — one BFS from the person, probed by level. One aggregate
// per friend then sums both countries. The two per-country counts correlate
// through the friend, the cyclic shape the paper resolves with a flat hash
// join (Table 2: IC3 R.R. ≈ 0); grouping on the friend needs no join at all.
// Starting at the person instead reads every message of 58 % of persons at
// simSF 1 to keep the ~8 % located in the two countries.
var IC3 = register(&Query{
	Name: "IC3", Kind: IC, Freq: 12,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		x, y := pg.TwoCountries()
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"countryX": vector.String_(x),
			"countryY": vector.String_(y),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		x, y := p.Str("countryX"), p.Str("countryY")
		inXY := func(name expr.Expr) expr.Expr {
			return expr.In{X: name, List: []vector.Value{vector.String_(x), vector.String_(y)}}
		}
		return append(append(plan.Plan{seekPerson(h, p.Int("personId"))}, scanNamed(h.Country, "ctry", inXY)...),
			&op.ProjectExpr{Expr: expr.Eq(expr.C("ctry.name"), expr.LStr(x)), As: "isX", Kind: vector.KindInt64},
			&op.ProjectExpr{Expr: expr.Eq(expr.C("ctry.name"), expr.LStr(y)), As: "isY", Kind: vector.KindInt64},
			&op.Expand{From: "ctry", To: "msg", Et: h.IsLocatedIn, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.Expand{From: "msg", To: "f", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
			withinTwoHops(h, "p", "f"),
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{
				{Func: op.Sum, Arg: "isX", As: "xCount"},
				{Func: op.Sum, Arg: "isY", As: "yCount"},
			}},
			&op.Filter{Pred: expr.And{L: expr.Gt(expr.C("xCount"), expr.LInt(0)), R: expr.Gt(expr.C("yCount"), expr.LInt(0))}},
			&op.ProjectExpr{Expr: expr.Arith{Op: expr.Add, L: expr.C("xCount"), R: expr.C("yCount")},
				As: "total", Kind: vector.KindInt64},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "total", Desc: true}, {Col: "f.id"}},
				Limit: 20,
				Cols:  []string{"f.id", "xCount", "yCount", "total"},
			},
		)
	},
})

// IC4 — tags of posts created by friends within a date window that never
// appeared on their earlier posts, counted and ranked. One traversal reads
// the friends' posts before the window's end; grouped by tag, a tag whose
// first post falls in the window is new, and then every post it counts lies
// in the window too.
var IC4 = register(&Query{
	Name: "IC4", Kind: IC, Freq: 36,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		start := pg.Date()
		return Params{
			"personId":  vector.Int64(pg.PersonExt()),
			"startDate": vector.Date(start),
			"endDate":   vector.Date(start + 30),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			&op.Expand{From: "f", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "post", Prop: "creationDate", As: "post.creationDate"}}},
			&op.Filter{Pred: expr.Lt(expr.C("post.creationDate"), expr.LDate(p.Int("endDate")))},
			&op.Expand{From: "post", To: "t", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t", Prop: "name", As: "t.name"}}},
			&op.Aggregate{GroupBy: []string{"t.name"}, Aggs: []op.AggSpec{
				{Func: op.Count, As: "postCount"},
				{Func: op.Min, Arg: "post.creationDate", As: "firstPost"},
			}},
			&op.Filter{Pred: expr.Ge(expr.C("firstPost"), expr.LDate(p.Int("startDate")))},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "postCount", Desc: true}, {Col: "t.name"}},
				Limit: 10,
				Cols:  []string{"t.name", "postCount"},
			},
		}
	},
})

// IC5 — forums that friends (1..2 hops) joined after a date, ranked by the
// number of contained posts: the paper's flagship AggregateProjectTop case
// (Table 2 collapses from hundreds of MB to ~1.6 KB under fusion). SNB
// counts only posts authored by those friends; counting all contained posts
// preserves the expansion fan-out and the aggregation choke point without
// the cyclic correlation.
var IC5 = register(&Query{
	Name: "IC5", Kind: IC, Freq: 9,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"minDate":  vector.Date(pg.Date()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			friends(h, "p", "f", 1, 2),
			&op.Expand{From: "f", To: "forum", Et: h.HasMember, Dir: catalog.In, DstLabel: h.Forum,
				EdgeProps: []op.EdgeProj{{Prop: "joinDate", As: "joinDate"}}},
			&op.Filter{Pred: expr.Gt(expr.C("joinDate"), expr.LDate(p.Int("minDate")))},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "forum", As: "forum.id", ExtID: true}}},
			&op.Expand{From: "forum", To: "post", Et: h.ContainerOf, Dir: catalog.Out, DstLabel: h.Post},
			&op.Aggregate{GroupBy: []string{"forum.id"}, Aggs: []op.AggSpec{{Func: op.Count, As: "postCount"}}},
			&op.OrderBy{Keys: []op.SortKey{{Col: "postCount", Desc: true}, {Col: "forum.id"}}, Limit: 20},
		}
	},
})

// IC6 — tags co-occurring with a given tag on posts by friends (1..2 hops):
// a genuinely multi-branch f-Tree (the post node carries the creator and the
// co-occurring tags as two children). The plan starts at the named tag —
// about 50 posts at simSF 1 — rather than at the person, whose friends
// within two hops wrote most posts: each of the tag's posts expands to its
// creator, and a hop-bounded ExpandInto keeps the posts whose creator is a
// friend within two hops.
var IC6 = register(&Query{
	Name: "IC6", Kind: IC, Freq: 16,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"tagName":  vector.String_(pg.TagName()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		tag := p.Str("tagName")
		isTag := func(name expr.Expr) expr.Expr { return expr.Eq(name, expr.LStr(tag)) }
		return append(append(plan.Plan{seekPerson(h, p.Int("personId"))}, scanNamed(h.Tag, "t1", isTag)...),
			&op.Expand{From: "t1", To: "post", Et: h.HasTag, Dir: catalog.In, DstLabel: h.Post},
			&op.Expand{From: "post", To: "f", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
			withinTwoHops(h, "p", "f"),
			&op.Expand{From: "post", To: "t2", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "t2", Prop: "name", As: "t2.name"}}},
			&op.Filter{Pred: expr.Ne(expr.C("t2.name"), expr.LStr(tag))},
			&op.Aggregate{GroupBy: []string{"t2.name"}, Aggs: []op.AggSpec{{Func: op.Count, As: "postCount"}}},
			&op.OrderBy{Keys: []op.SortKey{{Col: "postCount", Desc: true}, {Col: "t2.name"}}, Limit: 10},
		)
	},
})

// IC7 — most recent likers of the person's messages.
var IC7 = register(&Query{
	Name: "IC7", Kind: IC, Freq: 14,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{"personId": vector.Int64(pg.PersonExt())}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.Expand{From: "msg", To: "liker", Et: h.Likes, Dir: catalog.In, DstLabel: h.Person,
				EdgeProps: []op.EdgeProj{{Prop: "creationDate", As: "likeDate"}}},
			personCols("liker"),
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "msg", As: "msg.id", ExtID: true}}},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "likeDate", Desc: true}, {Col: "liker.id"}},
				Limit: 20,
				Cols:  []string{"liker.id", "liker.firstName", "liker.lastName", "msg.id", "likeDate"},
			},
		}
	},
})

// IC8 — most recent replies to the person's messages.
var IC8 = register(&Query{
	Name: "IC8", Kind: IC, Freq: 44,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{"personId": vector.Int64(pg.PersonExt())}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.Expand{From: "msg", To: "reply", Et: h.ReplyOf, Dir: catalog.In, DstLabel: h.Comment},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "reply", Prop: "creationDate", As: "reply.creationDate"},
				{Var: "reply", As: "reply.id", ExtID: true},
				{Var: "reply", Prop: "content", As: "reply.content"},
			}},
			&op.Expand{From: "reply", To: "author", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
			personCols("author"),
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "reply.creationDate", Desc: true}, {Col: "reply.id"}},
				Limit: 20,
				Cols:  []string{"author.id", "author.firstName", "author.lastName", "reply.id", "reply.content", "reply.creationDate"},
			},
		}
	},
})

// IC9 — recent messages (creationDate < D) by friends within 2 hops: the
// paper's running example (Figure 8 executes its single-source analog) and
// one of its heaviest queries.
var IC9 = register(&Query{
	Name: "IC9", Kind: IC, Freq: 16,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"maxDate":  vector.Date(pg.Date()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			friends(h, "p", "f", 1, 2),
			personCols("f"),
			&op.Expand{From: "f", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "msg", Prop: "creationDate", As: "msg.creationDate"},
				{Var: "msg", As: "msg.id", ExtID: true},
				{Var: "msg", Prop: "content", As: "msg.content"},
			}},
			&op.Filter{Pred: expr.Lt(expr.C("msg.creationDate"), expr.LDate(p.Int("maxDate")))},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "msg.creationDate", Desc: true}, {Col: "msg.id"}},
				Limit: 20,
				Cols:  []string{"f.id", "f.firstName", "f.lastName", "msg.id", "msg.content", "msg.creationDate"},
			},
		}
	},
})

// IC10 — friend recommendation among exactly-2-hop friends born near month
// M, scored by common interests versus total posting activity. The two
// scores are pattern counts on the filtered friend's node: its posts, and
// its posts carrying one of the person's interest tags — each interest's
// post run intersected with the friend's, so a tag the person lists twice,
// or a post tagged twice with it, counts twice. The paper observes that
// IC10 sees little factorization benefit under its flat hash-join plan;
// here it runs factorized throughout.
var IC10 = register(&Query{
	Name: "IC10", Kind: IC, Freq: 7,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"month":    vector.Int64(pg.Month()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		// birthday month: days-since-epoch mod 365 / 31 is meaningless, so
		// approximate month extraction as (birthday mod 372) / 31 + 1 over a
		// synthetic 12×31 calendar — deterministic on generated data.
		monthExpr := expr.Arith{Op: expr.Add,
			L: expr.Arith{Op: expr.Div,
				L: expr.Arith{Op: expr.Sub, L: expr.C("foaf.birthday"),
					R: expr.Arith{Op: expr.Mul, L: expr.Arith{Op: expr.Div, L: expr.C("foaf.birthday"), R: expr.LInt(372)}, R: expr.LInt(372)}},
				R: expr.LInt(31)},
			R: expr.LInt(1)}
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			friends(h, "p", "foaf", 2, 2),
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "foaf", As: "foaf.id", ExtID: true},
				{Var: "foaf", Prop: "firstName", As: "foaf.firstName"},
				{Var: "foaf", Prop: "birthday", As: "foaf.birthday"},
			}},
			&op.ProjectExpr{Expr: monthExpr, As: "bMonth", Kind: vector.KindInt64},
			&op.Filter{Pred: expr.Eq(expr.C("bMonth"), expr.LInt(p.Int("month")))},
			&op.PatternCount{From: "foaf", As: "totalPosts", Path: []op.Operator{
				&op.Expand{From: "foaf", To: "post", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
			}},
			&op.PatternCount{From: "foaf", As: "commonCount", Path: []op.Operator{
				&op.Expand{From: "p", To: "i", Et: h.HasInterest, Dir: catalog.Out, DstLabel: h.Tag},
				&op.ExpandIntersect{To: "post", Sides: []op.IntersectSide{
					{Var: "i", Et: h.HasTag, Dir: catalog.In, DstLabel: h.Post},
					{Var: "foaf", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Post},
				}},
			}},
			&op.ProjectExpr{
				Expr: expr.Arith{Op: expr.Sub,
					L: expr.Arith{Op: expr.Mul, L: expr.LInt(2), R: expr.C("commonCount")},
					R: expr.C("totalPosts")},
				As: "score", Kind: vector.KindInt64,
			},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "score", Desc: true}, {Col: "foaf.id"}},
				Limit: 10,
				Cols:  []string{"foaf.id", "foaf.firstName", "score"},
			},
		}
	},
})

// IC11 — friends (1..2 hops) who started work in country X before a given
// year, earliest first. The plan starts at the named country: its three
// companies expand in reverse to the people who work there (the workFrom
// filter on the edge), and a hop-bounded ExpandInto keeps those who are
// friends within two hops.
var IC11 = register(&Query{
	Name: "IC11", Kind: IC, Freq: 17,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"country":  vector.String_(pg.CountryName()),
			"year":     vector.Int64(pg.WorkYear()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		country := p.Str("country")
		isCountry := func(name expr.Expr) expr.Expr { return expr.Eq(name, expr.LStr(country)) }
		return append(append(plan.Plan{seekPerson(h, p.Int("personId"))}, scanNamed(h.Country, "ctry", isCountry)...),
			&op.Expand{From: "ctry", To: "org", Et: h.IsLocatedIn, Dir: catalog.In, DstLabel: h.Company},
			&op.Expand{From: "org", To: "f", Et: h.WorkAt, Dir: catalog.In, DstLabel: h.Person,
				EdgeProps: []op.EdgeProj{{Prop: "workFrom", As: "workFrom"}}},
			&op.Filter{Pred: expr.Lt(expr.C("workFrom"), expr.LInt(p.Int("year")))},
			withinTwoHops(h, "p", "f"),
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "f", As: "f.id", ExtID: true},
				{Var: "f", Prop: "firstName", As: "f.firstName"},
				{Var: "org", Prop: "name", As: "org.name"},
			}},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "workFrom"}, {Col: "f.id"}, {Col: "org.name", Desc: true}},
				Limit: 10,
				Cols:  []string{"f.id", "f.firstName", "org.name", "workFrom"},
			},
		)
	},
})

// IC12 — expert search: friends whose comments reply to posts tagged within
// a given tag class, with reply counts.
var IC12 = register(&Query{
	Name: "IC12", Kind: IC, Freq: 20,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{
			"personId": vector.Int64(pg.PersonExt()),
			"tagClass": vector.String_(pg.TagClassName()),
		}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person},
			&op.Expand{From: "f", To: "c", Et: h.HasCreator, Dir: catalog.In, DstLabel: h.Comment},
			&op.Expand{From: "c", To: "post", Et: h.ReplyOf, Dir: catalog.Out, DstLabel: h.Post},
			&op.Expand{From: "post", To: "t", Et: h.HasTag, Dir: catalog.Out, DstLabel: h.Tag},
			&op.Expand{From: "t", To: "tc", Et: h.HasType, Dir: catalog.Out, DstLabel: h.TagClass},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "tc", Prop: "name", As: "tc.name"}}},
			&op.Filter{Pred: expr.Eq(expr.C("tc.name"), expr.LStr(p.Str("tagClass")))},
			&op.ProjectProps{Specs: []op.ProjSpec{{Var: "f", As: "f.id", ExtID: true}}},
			&op.Aggregate{GroupBy: []string{"f.id"}, Aggs: []op.AggSpec{{Func: op.Count, As: "replyCount"}}},
			&op.OrderBy{Keys: []op.SortKey{{Col: "replyCount", Desc: true}, {Col: "f.id"}}, Limit: 20},
		}
	},
})
