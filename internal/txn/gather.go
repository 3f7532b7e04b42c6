package txn

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// Batch gather over a snapshot: one bulk copy from the graph, then committed
// record rows are patched on top. A base row is probed only once some base
// vertex has property versions — never, on a workload whose writes add
// vertices and edges — so the snapshot gathers at graph speed, zero-copy tier
// included, and pays one compare per row for the created vertices it may hold.
// The zone-map tier holds either way (PruneZones).

// GatherProps implements storage.View.
func (s *Snapshot) GatherProps(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, sel *vector.Bitset, out *vector.Column) {
	m := s.m
	m.graph.GatherProps(vids, label, pid, sel, out)
	written := m.written.Load() > 0
	if !written && m.created.Load() == nil {
		return
	}
	for i, v := range vids {
		if (v < m.base && !written) || (sel != nil && !sel.Get(i)) || m.graph.LabelOf(v) != label {
			continue
		}
		vo := m.overlayOf(v)
		if vo == nil {
			continue
		}
		if v < m.base {
			if val, ok := vo.propAt(pid, s.ver); ok {
				out.Set(i, val)
			}
			continue
		}
		if !vo.isNew || vo.createdVer > s.ver {
			continue
		}
		// A created vertex's newest write or creation-row value; a missing
		// entry stays the typed zero the base pass left behind.
		if val := vo.createdProp(s.Catalog(), pid, s.ver); val.Kind != vector.KindInvalid {
			out.Set(i, val)
		}
	}
}

// GatherExtIDs implements storage.View.
func (s *Snapshot) GatherExtIDs(vids []vector.VID, sel *vector.Bitset, out []int64) {
	m := s.m
	m.graph.GatherExtIDs(vids, sel, out)
	if m.created.Load() == nil {
		return
	}
	for i, v := range vids {
		if v < m.base || (sel != nil && !sel.Get(i)) {
			continue
		}
		if vo := m.overlayOf(v); vo != nil && vo.isNew && vo.createdVer <= s.ver {
			out[i] = vo.ext
		}
	}
}

// ShareScanColumn implements storage.ColumnSharer: while no base vertex has
// property versions, the graph's column is the snapshot's, so the zero-copy
// tier stays available (created vertices are not in a base scan order).
func (s *Snapshot) ShareScanColumn(label catalog.LabelID, pid catalog.PropID, vids []vector.VID) *vector.Column {
	if s.m.written.Load() > 0 {
		return nil
	}
	return s.m.graph.ShareScanColumn(label, pid, vids)
}

// PropDict implements storage.DictProvider. The dictionary is shared with
// the base column; record string values are interned into it on gather.
func (s *Snapshot) PropDict(label catalog.LabelID, pid catalog.PropID) *vector.Dict {
	return s.m.graph.PropDict(label, pid)
}

// PruneZones implements storage.ZonePruner. Base zone maps describe base
// values only, so a row with property versions could match even though its
// base zone cannot: the candidates are pruned against the base maps and every
// selected candidate with a record gets its bit back (created vertices sit
// outside the base maps and are never pruned). Untouched rows — nearly all of
// them — keep the zone-map tier however many writes have committed.
func (s *Snapshot) PruneZones(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, lo, hi int64, sel *vector.Bitset) (pruned, total int) {
	m := s.m
	if sel == nil || m.written.Load() == 0 {
		return m.graph.PruneZones(vids, label, pid, lo, hi, sel)
	}
	var keepBuf [32]int // rows to restore; rarely more than a handful
	keep := keepBuf[:0]
	for i, v := range vids {
		if v < m.base && sel.Get(i) && m.overlayOf(v) != nil {
			keep = append(keep, i)
		}
	}
	pruned, total = m.graph.PruneZones(vids, label, pid, lo, hi, sel)
	for _, i := range keep {
		sel.Set(i)
	}
	return pruned, total
}
