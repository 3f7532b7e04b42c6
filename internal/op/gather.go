package op

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// Vectorized property gather (§5, Vectorization): operators hand the
// storage layer a whole VID column and receive a whole property column back
// — storage.View has no per-row property read. Projection attaches the
// gathered column outright; fused predicates gather into reusable scratch
// columns and evaluate tight kernels over the raw slices.

// newGatherOutput returns the query-lifetime output column for a batch
// gather over the given defining labels: single-label string properties
// share the storage dictionary so the gather moves 4-byte codes; everything
// else is a plain typed column.
func (g *propGetter) newGatherOutput(ctx *Ctx, as string, labels []catalog.LabelProp) *vector.Column {
	if g.kind == vector.KindString && len(labels) == 1 {
		if d := ctx.View.PropDict(labels[0].Label, labels[0].Prop); d != nil {
			return ctx.Arena.OwnDictColumn(as, d)
		}
	}
	return ctx.Arena.OwnColumn(as, g.kind)
}

// presentLabels narrows g's defining labels to those a vertex in vids
// actually carries. Schema names like creationDate are defined on several
// labels, but a scan or typed expansion produces a single-label column —
// narrowing restores the dictionary-code and zero-copy tiers for them.
func (g *propGetter) presentLabels(ctx *Ctx, vids []vector.VID) []catalog.LabelProp {
	if len(g.labels) <= 1 {
		return g.labels
	}
	seen := make([]bool, len(g.labels))
	n := 0
	for _, v := range vids {
		l := ctx.View.LabelOf(v)
		for i, lp := range g.labels {
			if lp.Label == l && !seen[i] {
				seen[i] = true
				n++
			}
		}
		if n == len(g.labels) {
			break
		}
	}
	out := make([]catalog.LabelProp, 0, n)
	for i, lp := range g.labels {
		if seen[i] {
			out = append(out, lp)
		}
	}
	return out
}

// gatherColumn builds the property column of g for every row of vidCol in one
// batch. Tier 1 shares the storage column zero-copy when vidCol is exactly
// the label's scan order; tier 2 bulk-gathers into a fresh column (one pass
// per defining label, so mixed-label variables work).
func (g *propGetter) gatherColumn(ctx *Ctx, vidCol *vector.Column, as string) *vector.Column {
	vids := vidCol.VIDs()
	// A scan-ordered VID column matches at most one label's scan order, so
	// probing every defining label is cheap (length mismatches reject in O(1)).
	for _, lp := range g.labels {
		if col := ctx.View.ShareScanColumn(lp.Label, lp.Prop, vids); col != nil {
			return col.ShareAs(as)
		}
	}
	labels := g.presentLabels(ctx, vids)
	out := g.newGatherOutput(ctx, as, labels)
	out.Grow(len(vids))
	for _, lp := range labels {
		ctx.View.GatherProps(vids, lp.Label, lp.Prop, nil, out)
	}
	return out
}

// gatherExtIDColumn batch-resolves external identifiers.
func gatherExtIDColumn(ctx *Ctx, vidCol *vector.Column, as string) *vector.Column {
	vids := vidCol.VIDs()
	out := ctx.Arena.OwnColumn(as, vector.KindInt64)
	out.Grow(len(vids))
	ctx.View.GatherExtIDs(vids, nil, out.Int64s())
	return out
}
