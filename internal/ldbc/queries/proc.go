package queries

import (
	"sort"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/ldbc"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

// IC13 and IC14 are stored procedures, as in the paper (§6.1: "operators
// such as ShortestPath in IC13 ... are implemented as stored procedures,
// where intermediate data is hard to factorize"), outside the factorization
// memory accounting (Table 2's footnote). They search with internal/op's
// batched BFS kernels; this file binds parameters and weighs IC14's paths.

// IC13 — shortest path length between two persons over KNOWS (-1 when
// disconnected).
var IC13 = register(&Query{
	Name: "IC13", Kind: IC, Freq: 19, GenParams: twoPersons,
	Proc: func(view storage.View, h *ldbc.Handles, p Params) (*core.FlatBlock, error) {
		out := core.NewFlatBlock([]string{"shortestPathLength"}, []vector.Kind{vector.KindInt64})
		n := -1
		src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
		dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
		if ok1 && ok2 {
			n = op.ShortestPathLength(view, src, dst, h.Knows, catalog.Out, h.Person)
		}
		out.AppendOwned([]vector.Value{vector.Int64(int64(n))})
		return out, nil
	},
})

// IC14 — all shortest KNOWS-paths between two persons, scored by the
// interaction weight of consecutive pairs: 1.0 per comment replying to the
// other's post, 0.5 per comment replying to the other's comment (both
// directions), as in SNB. Path enumeration is capped at 1000 paths.
var IC14 = register(&Query{
	Name: "IC14", Kind: IC, Freq: 12, GenParams: twoPersons,
	Proc: func(view storage.View, h *ldbc.Handles, p Params) (*core.FlatBlock, error) {
		out := core.NewFlatBlock([]string{"pathLen", "weight"}, []vector.Kind{vector.KindInt64, vector.KindFloat64})
		src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
		dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
		if !ok1 || !ok2 {
			return out, nil
		}
		dag, ok := op.ShortestPathDAG(view, src, dst, h.Knows, catalog.Out, h.Person)
		if !ok {
			return out, nil
		}
		defer dag.Release()
		// A pair's weight is s[a,b] + s[b,a]: exact, as every term is 1.0 or
		// 0.5, so each path still sums bit-identical weights in path order.
		s := interactions(view, h, dag)
		edgeW := make([]float64, len(dag.Succ))
		for a := range dag.Nodes {
			for j := dag.Off[a]; j < dag.Off[a+1]; j++ {
				edgeW[j] = s[[2]int32{int32(a), dag.Succ[j]}] + s[[2]int32{dag.Succ[j], int32(a)}]
			}
		}
		weights := dag.PathWeights(edgeW, 1000)
		sort.Slice(weights, func(i, j int) bool { return weights[i] > weights[j] })
		for _, w := range weights {
			out.AppendOwned([]vector.Value{vector.Int64(int64(dag.Len)), vector.Float64(w)})
		}
		return out, nil
	},
})

// twoPersons draws the path queries' two distinct persons.
func twoPersons(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
	a, b := pg.TwoPersons()
	return Params{"person1Id": vector.Int64(a), "person2Id": vector.Int64(b)}
}

// interactions tallies s[a,b] over the DAG's node pairs: 1.0 per comment by
// a replying to a post by b, 0.5 per one replying to a comment by b. Three
// batched hops weigh every DAG person at once: their comments, the messages
// those reply to, and the messages' creators.
func interactions(view storage.View, h *ldbc.Handles, dag *op.PathDAG) map[[2]int32]float64 {
	b := new(storage.Batch)
	comments, by, _ := hop(view, b, dag.Nodes, h.HasCreator, catalog.In, h.Comment)
	parents, reply, labels := hop(view, b, comments, h.ReplyOf, catalog.Out, storage.AnyLabel)
	creators, of, _ := hop(view, b, parents, h.HasCreator, catalog.Out, h.Person)
	s := make(map[[2]int32]float64)
	for i, c := range creators {
		if n, ok := dag.Node(c); ok {
			w := 0.5
			if labels[of[i]] == h.Post {
				w = 1
			}
			s[[2]int32{by[reply[of[i]]], n}] += w
		}
	}
	return s
}

// hop reads every src's neighbours with one NeighborsBatch into b and lists
// them flat, each with the index of its source and its label.
func hop(view storage.View, b *storage.Batch, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) (vs []vector.VID, from []int32, labels []catalog.LabelID) {
	view.NeighborsBatch(srcs, et, dir, dstLabel, false, b)
	for i := range srcs {
		for _, pc := range b.Pieces[b.Runs[i].Start:b.Runs[i].End] {
			for _, v := range b.PieceVIDs(pc) {
				vs, from, labels = append(vs, v), append(from, int32(i)), append(labels, pc.Label)
			}
		}
	}
	return vs, from, labels
}
