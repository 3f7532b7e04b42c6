package storage

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// This file is the batch side of the read path: instead of one
// View.Prop(v,p) interface call per row (one boxed Value each), operators
// hand the storage layer a whole VID column and receive a whole property
// column back. Three tiers, fastest first:
//
//  1. aligned share — the VID column is exactly the label's scan order, so
//     the gathered column IS the storage column: zero copies, and the
//     storage zone map rides along for filter skipping;
//  2. bulk gather — one tight loop over the raw backing slices, moving
//     8-byte scalars or 4-byte dictionary codes;
//  3. boxed fallback — per-row Get/Set for exotic kinds.

// ColumnSharer is the optional zero-copy tier of the gather path. Views that
// can prove vids is exactly the storage row order of label expose the
// backing column itself.
type ColumnSharer interface {
	// ShareScanColumn returns the storage column of (label,pid) when vids is
	// row-aligned with it, or nil. Callers must treat the result as
	// read-only (wrap with ShareAs).
	ShareScanColumn(label catalog.LabelID, pid catalog.PropID, vids []vector.VID) *vector.Column
}

// DictProvider exposes the dictionary of a string property column so
// gathered output columns can share it and move codes instead of strings.
type DictProvider interface {
	PropDict(label catalog.LabelID, pid catalog.PropID) *vector.Dict
}

// ZonePruner is the optional zone-map tier: clear selection bits of
// candidates whose storage zone cannot contain a value in [lo,hi] before any
// value is gathered.
type ZonePruner interface {
	// PruneZones returns how many zones were ruled out and how many zones
	// the column has. Views that cannot prune (e.g. snapshots with property
	// overlays) return (0, 0).
	PruneZones(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, lo, hi int64, sel *vector.Bitset) (pruned, total int)
}

// propColumn resolves the storage column for (label, pid), nil when absent.
func (g *Graph) propColumn(label catalog.LabelID, pid catalog.PropID) *vector.Column {
	t := g.table(label)
	if t == nil || int(pid) >= len(t.cols) {
		return nil
	}
	return t.cols[pid]
}

// GatherProps implements View: for every selected row i whose vertex vids[i]
// carries the given label, the value of property pid is written to out[i];
// rows of other labels (or VIDs the graph holds no vertex for) are left
// untouched, so multi-label columns are filled by one pass per label. out
// must already have len(vids) rows (see Column.Grow). Base rows take the
// typed loops; created vertices' tail rows, a second pass.
func (g *Graph) GatherProps(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, sel *vector.Bitset, out *vector.Column) {
	col := g.propColumn(label, pid)
	if col == nil {
		return
	}
	labelOf, rowOf := g.labelOf, g.rowOf
	nBase := vector.VID(len(labelOf))
	switch {
	case col.Kind == vector.KindInt64 || col.Kind == vector.KindDate:
		src, dst := col.Int64s(), out.Int64s()
		for i, v := range vids {
			if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
				continue
			}
			dst[i] = src[rowOf[v]]
		}
	case col.Kind == vector.KindFloat64:
		src, dst := col.Float64s(), out.Float64s()
		for i, v := range vids {
			if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
				continue
			}
			dst[i] = src[rowOf[v]]
		}
	case col.Kind == vector.KindString && col.DictEncoded() && out.Dict() == col.Dict():
		src, dst := col.Codes(), out.Codes()
		for i, v := range vids {
			if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
				continue
			}
			dst[i] = src[rowOf[v]]
		}
	case col.Kind == vector.KindBool:
		src, dst := col.Bools(), out.Bools()
		for i, v := range vids {
			if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
				continue
			}
			dst[i] = src[rowOf[v]]
		}
	default:
		for i, v := range vids {
			if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
				continue
			}
			out.Set(i, col.Get(int(rowOf[v])))
		}
	}
	t := g.table(label)
	if t.nTail.Load() == 0 {
		return
	}
	codes := col.DictEncoded() && out.Dict() == col.Dict()
	for i, v := range vids {
		if v < nBase || (sel != nil && !sel.Get(i)) {
			continue
		}
		switch l, r := g.tailAt(v); {
		case l != label:
		case codes:
			out.Codes()[i] = uint32(t.tailWord(r, pid))
		default:
			out.Set(i, t.tailValue(r, pid))
		}
	}
}

// GatherExtIDs implements View: the external identifier of every selected
// vertex is written to out[i]; out must have len(vids) entries.
func (g *Graph) GatherExtIDs(vids []vector.VID, sel *vector.Bitset, out []int64) {
	extOf := g.extOf
	n := vector.VID(len(extOf))
	for i, v := range vids {
		switch {
		case sel != nil && !sel.Get(i):
		case v < n:
			out[i] = extOf[v]
		case g.HasVertex(v):
			out[i] = g.ExtID(v)
		}
	}
}

// ShareScanColumn implements ColumnSharer: when vids is element-for-element
// the label's scan order (which is how NodeScan emits it), the storage
// column itself is the gather result.
func (g *Graph) ShareScanColumn(label catalog.LabelID, pid catalog.PropID, vids []vector.VID) *vector.Column {
	col := g.propColumn(label, pid)
	if col == nil {
		return nil
	}
	scan := g.table(label).vids
	if len(vids) != len(scan) {
		return nil
	}
	for i, v := range vids {
		if v != scan[i] {
			return nil
		}
	}
	return col
}

// PropDict implements DictProvider.
func (g *Graph) PropDict(label catalog.LabelID, pid catalog.PropID) *vector.Dict {
	if col := g.propColumn(label, pid); col != nil {
		return col.Dict()
	}
	return nil
}

// PruneZones implements ZonePruner over the base graph's zone maps. Zone
// verdicts are computed lazily, once per touched zone.
func (g *Graph) PruneZones(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, lo, hi int64, sel *vector.Bitset) (pruned, total int) {
	col := g.propColumn(label, pid)
	if col == nil {
		return 0, 0
	}
	zm := col.ZoneMap()
	if zm == nil || zm.Zones() == 0 {
		return 0, 0
	}
	total = zm.Zones()
	const (
		unknown = iota
		keep
		prune
	)
	verdicts := make([]uint8, total)
	labelOf, rowOf := g.labelOf, g.rowOf
	nBase := vector.VID(len(labelOf))
	for i, v := range vids {
		if v >= nBase || labelOf[v] != label || (sel != nil && !sel.Get(i)) {
			continue
		}
		z := int(rowOf[v]) >> vector.ZoneShift
		if verdicts[z] == unknown {
			if zm.OverlapsInt(z, lo, hi) {
				verdicts[z] = keep
			} else {
				verdicts[z] = prune
				pruned++
			}
		}
		if verdicts[z] == prune && sel != nil {
			sel.Clear(i)
		}
	}
	return pruned, total
}
