// ExpandInto closes cyclic pattern edges by filtering selection vectors in
// place; geslint R3 sanctions this file's Sel writes by name (see
// internal/lint/rules.go) rather than through a blanket file directive.
package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// ExpandInto closes a cyclic pattern edge between two variables that are
// both already bound in the f-Tree — the triangle-closing step of
// (a)-[]->(b)-[]->(c), (c)-[]->(a). Instead of expanding to a new node and
// hash-joining it back against the bound variable (the classical plan), it
// checks edge existence directly against the adjacency index and clears the
// selection bits of tuples whose closing edge is missing — a semi-join, so
// no new f-Tree node and no intermediate materialization.
//
// When the adjacency run is CSR-sorted the membership probes run as a
// merge/galloping intersection with a monotone cursor; otherwise a
// per-source hash set answers the probes. Results are byte-identical either
// way.
//
// The probe side is chosen from the tree shape: candidates iterate on the
// deeper of the two nodes, and the adjacency of the shallower node's vertex
// is loaded once per owner row. When the shallow side is To, the probe runs
// over the reversed direction, so SrcLabel (the label bound to From) names
// the destination-label family of the reversed lookup.
//
// With hop bounds (Hops) the closing pattern is a path of MinHops..MaxHops
// edges: a tuple is kept iff To lies within those bounds of From at its
// shortest distance, as VarLengthExpand reaches it (From itself, at level 0,
// never). The probe is then one bounded BFS (bfs) per owner row, and a
// candidate is tested by its level in the search's visitSet — IC3, IC6 and
// IC11 keep a message's creator when it is a friend within two hops this
// way. A hop-bounded closure over a deeper From de-factors first, so the
// search always starts at From.
type ExpandInto struct {
	From, To string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	// DstLabel is the label bound to To; SrcLabel the label bound to From.
	// Either may be storage.AnyLabel.
	DstLabel catalog.LabelID
	SrcLabel catalog.LabelID
	// MinHops and MaxHops bound the closing path when either exceeds 1
	// (Hops); MinHops must then be at least 1. Otherwise the closure is the
	// one-edge probe.
	MinHops, MaxHops int
}

// Name implements Operator.
func (o *ExpandInto) Name() string { return "ExpandInto" }

// Hops reports whether the closure is a hop-bounded path rather than one
// edge.
func (o *ExpandInto) Hops() bool { return o.MinHops > 1 || o.MaxHops > 1 }

// Execute implements Operator.
func (o *ExpandInto) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	if o.Hops() && o.MinHops < 1 {
		return nil, fmt.Errorf("op: expand-into: hop bounds %d..%d: a zero-hop bound is not supported", o.MinHops, o.MaxHops)
	}
	nf, fromCol, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	nt, toCol, err := vidColumn(ft, o.To)
	if err != nil {
		return nil, err
	}

	// Pick the deep (candidate) and shallow (probe) sides. Every tuple pairs
	// a deep row with exactly one shallow row — its ancestor along the index
	// vectors — so the edge check is a per-row predicate on the deep node.
	// Both variables on one node pair row i with row i, From probing.
	var deep, shallow *core.Node
	var deepCol, shallowCol *vector.Column
	probe := o.probe(ctx)
	switch {
	case ancestorOf(nf, nt): // covers nf == nt
		deep, deepCol = nt, toCol
		shallow, shallowCol = nf, fromCol
	case ancestorOf(nt, nf) && !o.Hops():
		deep, deepCol = nf, fromCol
		shallow, shallowCol = nt, toCol
		probe.dir, probe.dstLabel = o.Dir.Reverse(), o.SrcLabel
	default:
		// Siblings (or a hop-bounded closure over a deeper From): neither
		// row determines the other's probe, so the semi-join is not a
		// selection on one node — de-factor (the paper's "ultimate solution"
		// fallback) and filter the one-node tree's rows.
		ft, err := defactor(ctx, ft, nil)
		if err != nil {
			return nil, err
		}
		return o.Execute(ctx, ft)
	}
	owner := deep.RowsAbove(shallow, ctx.Arena.GetInt32s(deep.Block.NumRows()))
	defer ctx.Arena.PutInt32s(owner)

	// filterMorselSize is a multiple of 64, so concurrent ranges never write
	// the same selection word; each range owns its probe state. Both columns
	// are read by range: owner rows are non-decreasing, so a range's owners
	// are one range of the shallow column.
	forRanges(ctx, deep.Block.NumRows(), filterMorselSize, func(lo, hi int) {
		if lo >= hi {
			return
		}
		p := probe
		dbuf := ctx.Arena.GetVIDs(hi - lo)
		sbuf := ctx.Arena.GetVIDs(int(owner[hi-1]-owner[lo]) + 1)
		cands := deepCol.AppendVIDRange(dbuf, lo, hi)
		olo := owner[lo]
		srcs := shallowCol.AppendVIDRange(sbuf, int(olo), int(owner[hi-1])+1)
		for i := lo; i < hi; i++ {
			if !deep.Sel.Get(i) {
				continue
			}
			p.load(srcs[owner[i]-olo])
			if !p.contains(cands[i-lo]) {
				deep.Sel.Clear(i)
			}
		}
		p.release()
		ctx.Arena.PutVIDs(cands)
		ctx.Arena.PutVIDs(srcs)
	})
	ft.PruneUp(deep)
	assertFTree(ft)
	return ft, nil
}

// probe returns the From-side probe of the closure.
func (o *ExpandInto) probe(ctx *Ctx) adjProbe {
	return adjProbe{ctx: ctx, et: o.Et, dir: o.Dir, dstLabel: o.DstLabel, hops: o.Hops(), minHops: o.MinHops, maxHops: o.MaxHops}
}

// ancestorOf reports whether a is d or an ancestor of d.
func ancestorOf(a, d *core.Node) bool {
	for n := d; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// adjProbe answers edge-membership queries against one source vertex's
// adjacency, caching the loaded run across consecutive probes of the same
// source (owner rows repeat along the deep node). A sorted run (one family)
// answers through a galloping search with a monotone cursor — consecutive
// candidates from a CSR-sorted child run advance the cursor instead of
// restarting, so a whole run intersects in a single merge pass. The runs of
// several families (Both, AnyLabel) probe by hash set. In the hop form the
// loaded "adjacency" is a bounded BFS from the source, and a probe reads a
// vertex's level.
type adjProbe struct {
	ctx              *Ctx
	et               catalog.EdgeTypeID
	dir              catalog.Direction
	dstLabel         catalog.LabelID
	hops             bool
	minHops, maxHops int

	src    [1]vector.VID
	loaded bool
	b      storage.Batch // Sorted: cur answers probes over the single run
	cur    vector.RunCursor
	set    map[vector.VID]struct{}
	walk   bfs // the hop form's search; its visitSet is pooled until release
}

// load points the probe at src's adjacency (no-op when already loaded): one
// one-source NeighborsBatch per owner row, reused across all its deep rows —
// batching whole-column lookups would load runs for owners that pruning
// already skipped.
func (p *adjProbe) load(src vector.VID) {
	if p.loaded && src == p.src[0] {
		return
	}
	p.src[0], p.loaded = src, true
	if p.hops {
		p.traverse(src)
		return
	}
	p.ctx.View.NeighborsBatch(p.src[:], p.et, p.dir, p.dstLabel, false, &p.b)
	if p.b.Sorted {
		p.cur.Reset(p.b.Run(0))
		return
	}
	p.set = make(map[vector.VID]struct{}, p.b.RunLen(0))
	for _, pc := range p.b.Pieces {
		for _, v := range p.b.PieceVIDs(pc) {
			p.set[v] = struct{}{}
		}
	}
}

// traverse runs the hop form's BFS from src to maxHops levels, leaving every
// reached vertex's level in walk.seen.
func (p *adjProbe) traverse(src vector.VID) {
	if p.walk.b == nil {
		p.walk = bfs{view: p.ctx.View, et: p.et, dir: p.dir, dstLabel: p.dstLabel, b: &p.b}
	}
	p.walk.start(src)
	for int(p.walk.level) < p.maxHops && len(p.walk.front) > 0 {
		p.walk.step()
	}
}

// contains reports whether v is in the loaded adjacency — in the hop form,
// whether the search reached v within [minHops, maxHops] levels.
func (p *adjProbe) contains(v vector.VID) bool {
	if p.hops {
		l, ok := p.walk.seen.at(v)
		return ok && int(l) >= p.minHops
	}
	if p.b.Sorted {
		return p.cur.Contains(v)
	}
	_, ok := p.set[v]
	return ok
}

// release returns the hop form's visitSet to its pool.
func (p *adjProbe) release() {
	if p.walk.seen != nil {
		visits.Put(p.walk.seen)
		p.walk.seen = nil
	}
}
