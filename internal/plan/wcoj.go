// WCOJ lowering: rewrite Expand + consecutive ExpandInto closures over the
// expanded variable into one op.ExpandIntersect. The binder emits cyclic
// subpatterns as "expand to the new vertex, then close each remaining edge
// with ExpandInto"; when two or more edges constrain the same new vertex
// (diamonds, 4-cycles, k-cliques), that chain either de-factors into flat
// rows (sibling owners) or filters a fully expanded candidate set —
// both strictly worse than intersecting the k sorted CSR adjacency runs
// directly. See DESIGN.md §4, "ExpandIntersect / WCOJ lowering".
package plan

import "ges/internal/op"

// LowerWCOJ returns the plan with every maximal Expand + ExpandInto… chain
// over one new vertex fused into an ExpandIntersect. The Expand keeps its
// role as side 0 (the base), so the intersection enumerates exactly the
// candidates the classical chain would have expanded — same rows, same
// multiplicity — and the vertex elimination order stays the binder's MATCH
// order; per-row probe ordering inside the operator supplies the cheap
// degree heuristic. Expands carrying fused predicates or edge-property
// projections are left alone, as are closures not touching the new vertex.
func LowerWCOJ(p Plan) Plan {
	out := make(Plan, 0, len(p))
	for i := 0; i < len(p); i++ {
		ex, ok := p[i].(*op.Expand)
		if !ok || !plainExpand(ex) {
			out = append(out, p[i])
			continue
		}
		sides := []op.IntersectSide{{Var: ex.From, Et: ex.Et, Dir: ex.Dir, DstLabel: ex.DstLabel}}
		j := i + 1
		for ; j < len(p); j++ {
			into, ok := p[j].(*op.ExpandInto)
			if !ok {
				break
			}
			s, ok := sideOfInto(into, ex.To)
			if !ok {
				break
			}
			sides = append(sides, s)
		}
		if len(sides) < 2 {
			out = append(out, ex)
			continue
		}
		out = append(out, &op.ExpandIntersect{To: ex.To, Sides: sides})
		i = j - 1
	}
	return out
}

// plainExpand reports whether the expand is a pure adjacency enumeration —
// no fused predicates, no edge-property projection — and therefore exactly
// reproducible as an intersection base.
func plainExpand(ex *op.Expand) bool {
	return ex.VertexPred == nil && len(ex.EdgeProps) == 0 && ex.Newest == nil
}

// sideOfInto converts an ExpandInto closing an edge against the new vertex
// to an intersection side. The side direction always points from the bound
// variable toward to, so a closure written (to)-[e]->(x) probes x's reversed
// adjacency. Self-loop closures (both endpoints == to) and hop-bounded ones
// (a path, not an adjacency run) stay residual.
func sideOfInto(into *op.ExpandInto, to string) (op.IntersectSide, bool) {
	switch {
	case into.Hops():
		return op.IntersectSide{}, false
	case into.From != to && into.To == to:
		return op.IntersectSide{Var: into.From, Et: into.Et, Dir: into.Dir,
			DstLabel: into.DstLabel}, true
	case into.From == to && into.To != to:
		return op.IntersectSide{Var: into.To, Et: into.Et, Dir: into.Dir.Reverse(),
			DstLabel: into.SrcLabel}, true
	default:
		return op.IntersectSide{}, false
	}
}
