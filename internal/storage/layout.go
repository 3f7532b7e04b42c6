package storage

import (
	"cmp"
	"slices"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// layout renumbers the base vertices at the first seal, before any image is
// built (DESIGN.md §5): labels in the order of their lowest loaded VID, each
// label's VIDs contiguous, its rows by (key, external id) when it has a
// clustering key, else in load order. A clustered label's row i is VID lo+i
// (Clustered). Reseals never renumber: later vertices are tail rows.
func (g *Graph) layout() {
	ts := *g.tables.Load()
	newVID := make([]vector.VID, len(g.labelOf))
	seen := make([]bool, len(ts))
	identity, next := true, vector.VID(0)
	for _, l := range g.labelOf {
		if seen[l] {
			continue
		}
		seen[l] = true
		t := ts[l]
		if pid, ok := g.cat.ClusterKey(l); ok {
			t.key = int(pid) + 1
			keys, rows := t.cols[pid].Int64s(), make([]int32, len(t.vids))
			for i := range rows {
				rows[i] = int32(i)
			}
			slices.SortFunc(rows, func(a, b int32) int {
				return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(g.extOf[t.vids[a]], g.extOf[t.vids[b]]))
			})
			vids := make([]vector.VID, len(rows))
			for i, r := range rows {
				vids[i] = t.vids[r]
			}
			for _, c := range t.cols {
				c.Permute(rows)
			}
			t.vids = vids // old VIDs in the new row order, renumbered below
		}
		for _, old := range t.vids {
			newVID[old], identity = next, identity && old == next
			next++
		}
	}
	if identity {
		return
	}
	labelOf, rowOf, extOf := make([]catalog.LabelID, len(newVID)), make([]uint32, len(newVID)), make([]int64, len(newVID))
	for old, nv := range newVID {
		labelOf[nv], extOf[nv] = g.labelOf[old], g.extOf[old]
	}
	for _, t := range ts {
		for i, old := range t.vids {
			t.vids[i], rowOf[newVID[old]] = newVID[old], uint32(i)
		}
		for ext, old := range t.byExt {
			t.byExt[ext] = newVID[old]
		}
	}
	g.labelOf, g.rowOf, g.extOf = labelOf, rowOf, extOf
	for _, a := range g.fams.Load().adj {
		for i := 0; a.log != nil && i < len(a.log.src); i++ {
			a.log.src[i], a.log.dst[i] = newVID[a.log.src[i]], newVID[a.log.dst[i]]
		}
	}
}

// Clustered implements View: the VID of row 0 and the key column (read-only)
// of a label the first seal laid out by its clustering key, else nil.
func (g *Graph) Clustered(label catalog.LabelID) (lo vector.VID, key *vector.Column) {
	g.sealBulk()
	t := g.table(label)
	if t == nil || t.key == 0 || len(t.vids) == 0 {
		return 0, nil
	}
	return t.vids[0], t.cols[t.key-1]
}
