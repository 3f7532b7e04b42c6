package queries

import (
	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// msgParams picks a random message (post or comment) and carries its label
// through the plan builder.
func msgParams(pg *ldbc.ParamGen) Params {
	ext, isPost := pg.MessageExt()
	label := int64(0)
	if isPost {
		label = 1
	}
	return Params{"messageId": vector.Int64(ext), "isPost": vector.Int64(label)}
}

func msgLabel(h *ldbc.Handles, p Params) catalog.LabelID {
	if p.Int("isPost") == 1 {
		return h.Post
	}
	return h.Comment
}

// IS1 — a person's profile.
var IS1 = register(&Query{
	Name: "IS1", Kind: IS, Freq: 95,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{"personId": vector.Int64(pg.PersonExt())}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "p", Prop: "firstName", As: "firstName"},
				{Var: "p", Prop: "lastName", As: "lastName"},
				{Var: "p", Prop: "birthday", As: "birthday"},
				{Var: "p", Prop: "locationIP", As: "locationIP"},
				{Var: "p", Prop: "browserUsed", As: "browserUsed"},
				{Var: "p", Prop: "gender", As: "gender"},
				{Var: "p", Prop: "creationDate", As: "creationDate"},
			}},
			&op.Defactor{Cols: []string{"firstName", "lastName", "birthday", "locationIP", "browserUsed", "gender", "creationDate"}},
		}
	},
})

// IS2 — a person's 10 most recent messages.
var IS2 = register(&Query{
	Name: "IS2", Kind: IS, Freq: 86,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{"personId": vector.Int64(pg.PersonExt())}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "msg", Et: h.HasCreator, Dir: catalog.In, DstLabel: storage.AnyLabel},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "msg", As: "msg.id", ExtID: true},
				{Var: "msg", Prop: "content", As: "msg.content"},
				{Var: "msg", Prop: "creationDate", As: "msg.creationDate"},
			}},
			&op.OrderBy{
				Keys:  []op.SortKey{{Col: "msg.creationDate", Desc: true}, {Col: "msg.id", Desc: true}},
				Limit: 10,
				Cols:  []string{"msg.id", "msg.content", "msg.creationDate"},
			},
		}
	},
})

// IS3 — a person's friends with friendship dates, most recent first.
var IS3 = register(&Query{
	Name: "IS3", Kind: IS, Freq: 92,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		return Params{"personId": vector.Int64(pg.PersonExt())}
	},
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			seekPerson(h, p.Int("personId")),
			&op.Expand{From: "p", To: "f", Et: h.Knows, Dir: catalog.Out, DstLabel: h.Person,
				EdgeProps: []op.EdgeProj{{Prop: "creationDate", As: "since"}}},
			personCols("f"),
			&op.OrderBy{
				Keys: []op.SortKey{{Col: "since", Desc: true}, {Col: "f.id"}},
				Cols: []string{"f.id", "f.firstName", "f.lastName", "since"},
			},
		}
	},
})

// IS4 — a message's content and creation date.
var IS4 = register(&Query{
	Name: "IS4", Kind: IS, Freq: 88,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params { return msgParams(pg) },
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "msg", Label: msgLabel(h, p), ExtID: p.Int("messageId")},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "msg", Prop: "creationDate", As: "creationDate"},
				{Var: "msg", Prop: "content", As: "content"},
			}},
			&op.Defactor{Cols: []string{"creationDate", "content"}},
		}
	},
})

// IS5 — a message's creator.
var IS5 = register(&Query{
	Name: "IS5", Kind: IS, Freq: 88,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params { return msgParams(pg) },
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "msg", Label: msgLabel(h, p), ExtID: p.Int("messageId")},
			&op.Expand{From: "msg", To: "author", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
			personCols("author"),
			&op.Defactor{Cols: []string{"author.id", "author.firstName", "author.lastName"}},
		}
	},
})

// procPool recycles the stored procedures' adjacency batches and gather
// buffers: a procedure runs without a query arena to draw them from.
var procPool = storage.NewPool()

// IS6 — the forum containing a message (walking reply chains up to the root
// post), with its moderator. Implemented as a stored procedure: the
// root-post walk is an unbounded pointer chase, not a fixed pattern.
var IS6 = register(&Query{
	Name: "IS6", Kind: IS, Freq: 77,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params { return msgParams(pg) },
	Proc: func(view storage.View, h *ldbc.Handles, p Params) (*core.FlatBlock, error) {
		out := core.NewFlatBlock(
			[]string{"forum.id", "forum.title", "moderator.id"},
			[]vector.Kind{vector.KindInt64, vector.KindString, vector.KindInt64},
		)
		msg, ok := view.VertexByExt(msgLabel(h, p), p.Int("messageId"))
		if !ok {
			return out, nil
		}
		// Walk to the root post. Each step depends on the last, so the walk
		// reads one source at a time.
		b := procPool.GetBatch()
		defer procPool.PutBatch(b)
		src := []vector.VID{msg}
		for view.LabelOf(src[0]) == h.Comment {
			view.NeighborsBatch(src, h.ReplyOf, catalog.Out, storage.AnyLabel, false, b)
			if b.RunLen(0) == 0 {
				return out, nil
			}
			src[0] = b.Run(0)[0]
		}
		view.NeighborsBatch(src, h.ContainerOf, catalog.In, h.Forum, false, b)
		// vids holds the n forums, then each one's moderator (the last of its
		// run, NilVID when it has none); one gather reads all their ids.
		n := b.RunLen(0)
		vids := append(procPool.GetVIDs(2*n), b.Run(0)...)
		defer procPool.PutVIDs(vids)
		view.NeighborsBatch(vids[:n], h.HasModerator, catalog.Out, h.Person, false, b)
		for i := range n {
			mod := vector.NilVID
			if run := b.Run(i); len(run) > 0 {
				mod = run[len(run)-1]
			}
			vids = append(vids, mod)
		}
		ids := procPool.GetColumn("id", vector.KindInt64)
		defer procPool.PutColumn(ids)
		ids.Grow(2 * n)
		view.GatherExtIDs(vids, nil, ids.Int64s())
		titles := procPool.GetColumn("forum.title", vector.KindString)
		defer procPool.PutColumn(titles)
		titles.Grow(n)
		view.GatherProps(vids[:n], h.Forum, h.FTitle, nil, titles)
		for i := range n {
			modID := int64(-1)
			if vids[n+i] != vector.NilVID {
				modID = ids.Int64s()[n+i]
			}
			out.AppendOwned([]vector.Value{vector.Int64(ids.Int64s()[i]), titles.Get(i), vector.Int64(modID)})
		}
		return out, nil
	},
})

// IS7 — replies to a message with their authors, newest first.
var IS7 = register(&Query{
	Name: "IS7", Kind: IS, Freq: 66,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params { return msgParams(pg) },
	Build: func(h *ldbc.Handles, p Params) plan.Plan {
		return plan.Plan{
			&op.NodeByIdSeek{Var: "msg", Label: msgLabel(h, p), ExtID: p.Int("messageId")},
			&op.Expand{From: "msg", To: "reply", Et: h.ReplyOf, Dir: catalog.In, DstLabel: h.Comment},
			&op.ProjectProps{Specs: []op.ProjSpec{
				{Var: "reply", As: "reply.id", ExtID: true},
				{Var: "reply", Prop: "content", As: "reply.content"},
				{Var: "reply", Prop: "creationDate", As: "reply.creationDate"},
			}},
			&op.Expand{From: "reply", To: "author", Et: h.HasCreator, Dir: catalog.Out, DstLabel: h.Person},
			personCols("author"),
			&op.OrderBy{
				Keys: []op.SortKey{{Col: "reply.creationDate", Desc: true}, {Col: "author.id"}},
				Cols: []string{"reply.id", "reply.content", "reply.creationDate", "author.id", "author.firstName", "author.lastName"},
			},
		}
	},
})
