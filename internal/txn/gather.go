package txn

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// Batch gather over a snapshot: one bulk copy from the immutable base, then
// committed overlay rows are patched on top. With no overlays the snapshot
// gathers at exactly base-graph speed (and keeps the zero-copy tier); with
// overlays the patch loop mirrors Snapshot.Prop row by row. The zone-map
// tier holds either way (PruneZones).

// GatherProps implements storage.View.
func (s *Snapshot) GatherProps(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, sel *vector.Bitset, out *vector.Column) {
	g := s.m.graph
	g.GatherProps(vids, label, pid, sel, out)
	if !s.hasOverlays {
		return
	}
	base := vector.VID(s.baseCount())
	for i, v := range vids {
		if sel != nil && !sel.Get(i) {
			continue
		}
		vo := s.m.overlayOf(v)
		if vo == nil {
			continue
		}
		vo.mu.RLock()
		if v >= base {
			if !vo.isNew || vo.createdVer > s.ver || vo.label != label {
				vo.mu.RUnlock()
				continue
			}
		} else if g.LabelOf(v) != label {
			vo.mu.RUnlock()
			continue
		}
		if val, ok := vo.propAt(pid, s.ver); ok {
			vo.mu.RUnlock()
			out.Set(i, val)
			continue
		}
		if v >= base {
			// Creation-time property row of a vertex born in a transaction;
			// missing entries stay the typed zero the base pass left behind.
			var val vector.Value
			if int(pid) < len(vo.baseProps) {
				val = vo.baseProps[pid]
			}
			vo.mu.RUnlock()
			if val.Kind != vector.KindInvalid {
				out.Set(i, val)
			}
			continue
		}
		vo.mu.RUnlock()
	}
}

// GatherExtIDs implements storage.View.
func (s *Snapshot) GatherExtIDs(vids []vector.VID, sel *vector.Bitset, out []int64) {
	g := s.m.graph
	g.GatherExtIDs(vids, sel, out)
	if !s.hasOverlays {
		return
	}
	base := vector.VID(s.baseCount())
	for i, v := range vids {
		if v < base || (sel != nil && !sel.Get(i)) {
			continue
		}
		vo := s.m.overlayOf(v)
		if vo == nil {
			continue
		}
		vo.mu.RLock()
		if vo.isNew && vo.createdVer <= s.ver {
			out[i] = vo.ext
		}
		vo.mu.RUnlock()
	}
}

// ShareScanColumn implements storage.ColumnSharer: without overlays the
// snapshot IS the base, so the zero-copy tier stays available.
func (s *Snapshot) ShareScanColumn(label catalog.LabelID, pid catalog.PropID, vids []vector.VID) *vector.Column {
	if s.hasOverlays {
		return nil
	}
	return s.m.graph.ShareScanColumn(label, pid, vids)
}

// PropDict implements storage.DictProvider. The dictionary is shared with
// the base column; overlay string values are interned into it on gather.
func (s *Snapshot) PropDict(label catalog.LabelID, pid catalog.PropID) *vector.Dict {
	return s.m.graph.PropDict(label, pid)
}

// PruneZones implements storage.ZonePruner. Base zone maps describe base
// values only, so an overlaid row could match even though its base zone
// cannot: the candidates are pruned against the base maps and every selected
// candidate that has an overlay gets its bit back (created vertices sit
// outside the base maps and are never pruned). Untouched rows — nearly all
// of them — keep the zone-map tier however many writes have committed.
func (s *Snapshot) PruneZones(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, lo, hi int64, sel *vector.Bitset) (pruned, total int) {
	g := s.m.graph
	if !s.hasOverlays || sel == nil {
		return g.PruneZones(vids, label, pid, lo, hi, sel)
	}
	base := vector.VID(s.baseCount())
	var keepBuf [32]int // rows to restore; rarely more than a handful
	keep := keepBuf[:0]
	for i, v := range vids {
		if v < base && s.m.base[v].Load() != nil && sel.Get(i) {
			keep = append(keep, i)
		}
	}
	pruned, total = g.PruneZones(vids, label, pid, lo, hi, sel)
	for _, i := range keep {
		sel.Set(i)
	}
	return pruned, total
}
