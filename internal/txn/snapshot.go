package txn

import (
	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Snapshot is a non-blocking, immutable read view at one version: the graph's
// adjacency as of that version plus every vertex record committed at or below
// it. It implements storage.View, so the executor runs against it exactly as
// it runs against the graph. No read takes a lock.
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

// LabelOf implements storage.View: the graph knows created vertices' labels.
func (s *Snapshot) LabelOf(v vector.VID) catalog.LabelID { return s.m.graph.LabelOf(v) }

// ExtID implements storage.View.
func (s *Snapshot) ExtID(v vector.VID) int64 {
	if v < s.m.base {
		return s.m.graph.ExtID(v)
	}
	if vo := s.m.overlayOf(v); vo != nil {
		return vo.ext
	}
	return 0
}

// VertexByExt implements storage.View.
func (s *Snapshot) VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool) {
	if vid, ok := s.m.graph.VertexByExt(label, ext); ok {
		return vid, true
	}
	if s.m.created.Load() == nil {
		return vector.NilVID, false
	}
	e, ok := s.m.byExt.Load(extKey{label: label, ext: ext})
	if !ok || e.(extEntry).ver > s.ver {
		return vector.NilVID, false
	}
	return e.(extEntry).vid, true
}

// Prop implements storage.View. A base row is probed for a record only once
// some base vertex has property versions.
func (s *Snapshot) Prop(v vector.VID, p catalog.PropID) vector.Value {
	if v < s.m.base {
		if s.m.written.Load() > 0 {
			if vo := s.m.overlayOf(v); vo != nil {
				if val, ok := vo.propAt(p, s.ver); ok {
					return val
				}
			}
		}
		return s.m.graph.Prop(v, p)
	}
	if vo := s.m.overlayOf(v); vo != nil && vo.isNew && vo.createdVer <= s.ver {
		return vo.createdProp(s.Catalog(), p, s.ver)
	}
	return vector.Value{}
}

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

// ScanLabel implements storage.View. With no visible created vertices the
// base slice is returned as-is (zero copy).
func (s *Snapshot) ScanLabel(label catalog.LabelID) []vector.VID {
	base := s.m.graph.ScanLabel(label)
	idx := s.m.created.Load()
	if idx == nil || int(label) >= len(idx.byLabel) {
		return base
	}
	list := idx.byLabel[label]
	n := visiblePrefix(list, s.ver)
	if n == 0 {
		return base
	}
	out := make([]vector.VID, len(base), len(base)+n)
	copy(out, base)
	for _, e := range list[:n] {
		out = append(out, e.vid)
	}
	return out
}

// NumVertices implements storage.View.
func (s *Snapshot) NumVertices() int {
	n := int(s.m.base)
	if idx := s.m.created.Load(); idx != nil {
		n += visiblePrefix(idx.all, s.ver)
	}
	return n
}
