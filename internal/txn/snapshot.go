package txn

import (
	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Snapshot is a non-blocking, immutable read view at one version: the graph
// as of that version plus every property version committed at or below it.
// It implements storage.View, so the executor runs against it exactly as it
// runs against the graph. No read takes a lock.
//
// Property reads are the graph's, with the records patched on top. A row is
// probed for a record only once some vertex has property versions — never,
// on a workload whose writes add vertices and edges — so the snapshot
// gathers at graph speed, zero-copy tier included.
type Snapshot struct {
	m      *Manager
	ver    uint64
	at     storage.VersionView
	pinned bool
}

// Version returns the snapshot's version.
func (s *Snapshot) Version() uint64 { return s.ver }

// Catalog implements storage.View.
func (s *Snapshot) Catalog() *catalog.Catalog { return s.m.graph.Catalog() }

// LabelOf implements storage.View.
func (s *Snapshot) LabelOf(v vector.VID) catalog.LabelID { return s.at.LabelOf(v) }

// ExtID implements storage.View.
func (s *Snapshot) ExtID(v vector.VID) int64 { return s.at.ExtID(v) }

// VertexByExt implements storage.View: only vertices committed at or below
// the snapshot are found.
func (s *Snapshot) VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool) {
	return s.at.VertexByExt(label, ext)
}

// ScanLabel implements storage.View.
func (s *Snapshot) ScanLabel(label catalog.LabelID) []vector.VID { return s.at.ScanLabel(label) }

// NumVertices implements storage.View.
func (s *Snapshot) NumVertices() int { return s.at.NumVertices() }

// Neighbors implements storage.View: the graph's segments as of the snapshot.
func (s *Snapshot) Neighbors(buf []storage.Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []storage.Segment {
	return s.at.Neighbors(buf, src, et, dir, dstLabel, withProps)
}

// NeighborsBatch implements storage.View: the graph's batched kernels as of
// the snapshot, which decide per source — a request none of whose runs a
// visible delta entry changes is the shared, zero-copy, Sorted batch.
func (s *Snapshot) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *storage.Batch) {
	s.at.NeighborsBatch(srcs, et, dir, dstLabel, withProps, out)
}

// Degree implements storage.View.
func (s *Snapshot) Degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int {
	return s.at.Degree(src, et, dir, dstLabel)
}

// record returns v's property-version record, or nil.
func (s *Snapshot) record(v vector.VID) *vertexOverlay {
	if s.m.count.Load() == 0 {
		return nil
	}
	return s.m.overlayOf(v)
}

// Prop implements storage.View.
func (s *Snapshot) Prop(v vector.VID, p catalog.PropID) vector.Value {
	if vo := s.record(v); vo != nil {
		if val, ok := vo.propAt(p, s.ver); ok {
			return val
		}
	}
	return s.at.Prop(v, p)
}

// GatherProps implements storage.View: one bulk gather from the graph, then
// the committed property versions patched on top.
func (s *Snapshot) GatherProps(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, sel *vector.Bitset, out *vector.Column) {
	s.at.GatherProps(vids, label, pid, sel, out)
	if s.m.count.Load() == 0 {
		return
	}
	for i, v := range vids {
		if (sel != nil && !sel.Get(i)) || s.at.LabelOf(v) != label {
			continue
		}
		if vo := s.m.overlayOf(v); vo != nil {
			if val, ok := vo.propAt(pid, s.ver); ok {
				out.Set(i, val)
			}
		}
	}
}

// GatherExtIDs implements storage.View.
func (s *Snapshot) GatherExtIDs(vids []vector.VID, sel *vector.Bitset, out []int64) {
	s.at.GatherExtIDs(vids, sel, out)
}

// ShareScanColumn implements storage.ColumnSharer: while no vertex has
// property versions, the graph's column is the snapshot's, so the zero-copy
// tier stays available.
func (s *Snapshot) ShareScanColumn(label catalog.LabelID, pid catalog.PropID, vids []vector.VID) *vector.Column {
	if s.m.count.Load() > 0 {
		return nil
	}
	return s.at.ShareScanColumn(label, pid, vids)
}

// PropDict implements storage.DictProvider. The dictionary is shared with
// the graph's column; record string values are interned into it on gather.
func (s *Snapshot) PropDict(label catalog.LabelID, pid catalog.PropID) *vector.Dict {
	return s.at.PropDict(label, pid)
}

// PruneZones implements storage.ZonePruner. Zone maps describe the graph's
// values only, so a row with property versions could match even though its
// zone cannot: the candidates are pruned against the graph's maps and every
// selected candidate with a record gets its bit back. Untouched rows —
// nearly all of them — keep the zone-map tier however many writes have
// committed.
func (s *Snapshot) PruneZones(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, lo, hi int64, sel *vector.Bitset) (pruned, total int) {
	if sel == nil || s.m.count.Load() == 0 {
		return s.at.PruneZones(vids, label, pid, lo, hi, sel)
	}
	var keepBuf [32]int // rows to restore; rarely more than a handful
	keep := keepBuf[:0]
	for i, v := range vids {
		if sel.Get(i) && s.m.overlayOf(v) != nil {
			keep = append(keep, i)
		}
	}
	pruned, total = s.at.PruneZones(vids, label, pid, lo, hi, sel)
	for _, i := range keep {
		sel.Set(i)
	}
	return pruned, total
}
