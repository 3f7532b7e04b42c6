package queries

import (
	"sort"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/vector"
)

// The path queries IC13 and IC14 are implemented as stored procedures, as
// in the paper (§6.1: "operators such as ShortestPath in IC13 ... are
// implemented as stored procedures, where intermediate data is hard to
// factorize"). Their intermediate state is therefore excluded from the
// engine's factorization memory accounting, matching Table 2's footnote.

// bfsDistances runs a BFS from src over KNOWS and returns the distance map
// up to maxDepth (or unbounded when maxDepth < 0).
func bfsDistances(view storage.View, h *ldbc.Handles, src vector.VID, maxDepth int) map[vector.VID]int {
	dist := map[vector.VID]int{src: 0}
	frontier := []vector.VID{src}
	var segBuf []storage.Segment
	for d := 1; len(frontier) > 0 && (maxDepth < 0 || d <= maxDepth); d++ {
		var next []vector.VID
		for _, u := range frontier {
			segBuf = view.Neighbors(segBuf[:0], u, h.Knows, catalog.Out, h.Person, false)
			for _, seg := range segBuf {
				for _, v := range seg.VIDs {
					if _, ok := dist[v]; ok {
						continue
					}
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// IC13 — shortest path length between two persons over KNOWS (-1 when
// disconnected).
var IC13 = register(&Query{
	Name: "IC13", Kind: IC, Freq: 19,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		a, b := pg.TwoPersons()
		return Params{"person1Id": vector.Int64(a), "person2Id": vector.Int64(b)}
	},
	Proc: func(view storage.View, h *ldbc.Handles, p Params) (*core.FlatBlock, error) {
		out := core.NewFlatBlock([]string{"shortestPathLength"}, []vector.Kind{vector.KindInt64})
		src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
		dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
		if !ok1 || !ok2 {
			out.AppendOwned([]vector.Value{vector.Int64(-1)})
			return out, nil
		}
		if src == dst {
			out.AppendOwned([]vector.Value{vector.Int64(0)})
			return out, nil
		}
		// Bidirectional BFS: alternate expanding the smaller frontier.
		distA := map[vector.VID]int{src: 0}
		distB := map[vector.VID]int{dst: 0}
		frontA := []vector.VID{src}
		frontB := []vector.VID{dst}
		var segBuf []storage.Segment
		expand := func(front []vector.VID, dist, other map[vector.VID]int) ([]vector.VID, int) {
			var next []vector.VID
			for _, u := range front {
				d := dist[u]
				segBuf = view.Neighbors(segBuf[:0], u, h.Knows, catalog.Out, h.Person, false)
				for _, seg := range segBuf {
					for _, v := range seg.VIDs {
						if _, seen := dist[v]; seen {
							continue
						}
						dist[v] = d + 1
						if od, hit := other[v]; hit {
							return nil, d + 1 + od
						}
						next = append(next, v)
					}
				}
			}
			return next, -1
		}
		for len(frontA) > 0 && len(frontB) > 0 {
			var meet int
			if len(frontA) <= len(frontB) {
				frontA, meet = expand(frontA, distA, distB)
			} else {
				frontB, meet = expand(frontB, distB, distA)
			}
			if meet >= 0 {
				out.AppendOwned([]vector.Value{vector.Int64(int64(meet))})
				return out, nil
			}
		}
		out.AppendOwned([]vector.Value{vector.Int64(-1)})
		return out, nil
	},
})

// IC14 — all shortest KNOWS-paths between two persons, scored by the
// interaction weight of consecutive pairs: 1.0 per comment replying to the
// other's post, 0.5 per comment replying to the other's comment (both
// directions), as in SNB. Path enumeration is capped at 1000 paths.
var IC14 = register(&Query{
	Name: "IC14", Kind: IC, Freq: 12,
	GenParams: func(ds *ldbc.Dataset, pg *ldbc.ParamGen) Params {
		a, b := pg.TwoPersons()
		return Params{"person1Id": vector.Int64(a), "person2Id": vector.Int64(b)}
	},
	Proc: func(view storage.View, h *ldbc.Handles, p Params) (*core.FlatBlock, error) {
		out := core.NewFlatBlock(
			[]string{"pathLen", "weight"},
			[]vector.Kind{vector.KindInt64, vector.KindFloat64},
		)
		src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
		dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
		if !ok1 || !ok2 {
			return out, nil
		}
		// Distances from dst bound the search to shortest paths only.
		distTo := bfsDistances(view, h, dst, -1)
		total, ok := distTo[src]
		if !ok {
			return out, nil
		}
		const maxPaths = 1000
		var paths [][]vector.VID
		var walk func(u vector.VID, path []vector.VID)
		var segBuf []storage.Segment
		walk = func(u vector.VID, path []vector.VID) {
			if len(paths) >= maxPaths {
				return
			}
			if u == dst {
				paths = append(paths, append([]vector.VID(nil), path...))
				return
			}
			segBuf = view.Neighbors(segBuf[:0], u, h.Knows, catalog.Out, h.Person, false)
			var nexts []vector.VID
			for _, seg := range segBuf {
				for _, v := range seg.VIDs {
					if d, ok := distTo[v]; ok && d == distTo[u]-1 {
						nexts = append(nexts, v)
					}
				}
			}
			for _, v := range nexts {
				walk(v, append(path, v))
			}
		}
		walk(src, []vector.VID{src})

		// Paths share edges: each pair is weighed once per query, and each path
		// still sums its weights in path order.
		memo := make(map[[2]vector.VID]float64)
		weights := make([]float64, len(paths))
		for i, path := range paths {
			w := 0.0
			for k := 0; k+1 < len(path); k++ {
				pair := [2]vector.VID{path[k], path[k+1]}
				pw, ok := memo[pair]
				if !ok {
					pw = interactionWeight(view, h, pair[0], pair[1])
					memo[pair] = pw
				}
				w += pw
			}
			weights[i] = w
		}
		order := make([]int, len(paths))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
		for _, i := range order {
			out.AppendOwned([]vector.Value{
				vector.Int64(int64(total)),
				vector.Float64(weights[i]),
			})
		}
		return out, nil
	},
})

// interactionWeight scores one adjacent person pair: comments by either one
// replying to the other's posts score 1.0, to the other's comments 0.5.
func interactionWeight(view storage.View, h *ldbc.Handles, a, b vector.VID) float64 {
	w := 0.0
	var segBuf, parentBuf []storage.Segment
	scoreDir := func(x, y vector.VID) {
		// Comments created by x ...
		segBuf = view.Neighbors(segBuf[:0], x, h.HasCreator, catalog.In, h.Comment, false)
		for _, seg := range segBuf {
			for _, c := range seg.VIDs {
				// ... replying to a message created by y.
				parentBuf = view.Neighbors(parentBuf[:0], c, h.ReplyOf, catalog.Out, storage.AnyLabel, false)
				for _, pseg := range parentBuf {
					for _, parent := range pseg.VIDs {
						for _, cseg := range view.Neighbors(nil, parent, h.HasCreator, catalog.Out, h.Person, false) {
							for _, creator := range cseg.VIDs {
								if creator != y {
									continue
								}
								if view.LabelOf(parent) == h.Post {
									w += 1.0
								} else {
									w += 0.5
								}
							}
						}
					}
				}
			}
		}
	}
	scoreDir(a, b)
	scoreDir(b, a)
	return w
}
