package txn

import (
	"sort"
	"sync"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Snapshot is a non-blocking, immutable read view at one version: the base
// graph plus every overlay entry committed at or below that version. It
// implements storage.View, so the executor runs against it exactly as it
// runs against the base graph.
type Snapshot struct {
	m           *Manager
	ver         uint64
	hasOverlays bool
	pinned      bool
}

// Version returns the snapshot's version.
func (s *Snapshot) Version() uint64 { return s.ver }

// Catalog implements storage.View.
func (s *Snapshot) Catalog() *catalog.Catalog { return s.m.graph.Catalog() }

// baseCount is the number of vertices in the immutable base.
func (s *Snapshot) baseCount() int { return s.m.graph.NumVertices() }

// LabelOf implements storage.View.
func (s *Snapshot) LabelOf(v vector.VID) catalog.LabelID {
	if int(v) < s.baseCount() {
		return s.m.graph.LabelOf(v)
	}
	vo := s.m.overlayOf(v)
	if vo == nil {
		return 0
	}
	vo.mu.RLock()
	defer vo.mu.RUnlock()
	return vo.label
}

// ExtID implements storage.View.
func (s *Snapshot) ExtID(v vector.VID) int64 {
	if int(v) < s.baseCount() {
		return s.m.graph.ExtID(v)
	}
	vo := s.m.overlayOf(v)
	if vo == nil {
		return 0
	}
	vo.mu.RLock()
	defer vo.mu.RUnlock()
	return vo.ext
}

// VertexByExt implements storage.View.
func (s *Snapshot) VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool) {
	if vid, ok := s.m.graph.VertexByExt(label, ext); ok {
		return vid, true
	}
	if !s.hasOverlays {
		return vector.NilVID, false
	}
	s.m.mu.RLock()
	e, ok := s.m.byExt[extKey{label: label, ext: ext}]
	s.m.mu.RUnlock()
	if !ok || e.ver > s.ver {
		return vector.NilVID, false
	}
	return e.vid, true
}

// Prop implements storage.View.
func (s *Snapshot) Prop(v vector.VID, p catalog.PropID) vector.Value {
	if s.hasOverlays {
		if vo := s.m.overlayOf(v); vo != nil {
			vo.mu.RLock()
			if val, ok := vo.propAt(p, s.ver); ok {
				vo.mu.RUnlock()
				return val
			}
			if vo.isNew && vo.createdVer <= s.ver {
				var val vector.Value
				if int(p) < len(vo.baseProps) {
					val = vo.baseProps[p]
				}
				kind := vector.KindInvalid
				defs := s.Catalog().LabelProps(vo.label)
				if int(p) < len(defs) {
					kind = defs[p].Kind
				}
				vo.mu.RUnlock()
				if val.Kind == vector.KindInvalid {
					val = vector.Value{Kind: kind}
				}
				return val
			}
			vo.mu.RUnlock()
		}
	}
	if int(v) < s.baseCount() {
		return s.m.graph.Prop(v, p)
	}
	return vector.Value{}
}

// Neighbors implements storage.View: base segments first, then the visible
// prefix of each matching overlay list.
func (s *Snapshot) Neighbors(buf []storage.Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []storage.Segment {
	if dir == catalog.Both {
		buf = s.Neighbors(buf, src, et, catalog.Out, dstLabel, withProps)
		return s.Neighbors(buf, src, et, catalog.In, dstLabel, withProps)
	}
	if int(src) < s.baseCount() {
		buf = s.m.graph.Neighbors(buf, src, et, dir, dstLabel, withProps)
	}
	if !s.hasOverlays {
		return buf
	}
	vo := s.m.overlayOf(src)
	if vo == nil {
		return buf
	}
	vo.mu.RLock()
	defer vo.mu.RUnlock()
	if !vo.visibleNew(s.ver) {
		return buf
	}
	for _, f := range vo.adj {
		if !f.key.matches(et, dir, dstLabel) {
			continue
		}
		if seg, ok := f.list.segment(f.list.visiblePrefix(s.ver), withProps); ok {
			buf = append(buf, seg)
		}
	}
	return buf
}

// NeighborsBatch implements storage.View. Every request is answered by the
// base graph's batched kernels; what the snapshot adds is decided per source.
// A source whose overlay slot is empty costs one atomic load, and when no
// source of the request has a visible overlay list for the family the base
// batch is returned as it is — shared, zero-copy and Sorted on a single
// sealed family. Otherwise the visible overlay prefixes of the sources that
// have one are spliced into the packed batch after their base runs, the
// scalar merge order, so batched and scalar reads stay byte-identical and
// Sorted is false. Only a base that cannot pack (an unsealed family, a live
// storage delta) takes the per-source reference path.
func (s *Snapshot) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *storage.Batch) {
	g := s.m.graph
	if s.hasOverlays {
		buf := overlayRunBufs.Get().(*[]storage.OverlayRun)
		over := s.overlayRuns((*buf)[:0], srcs, et, dir, dstLabel, withProps)
		spliced := len(over) > 0
		if spliced && !g.PackNeighborsBatch(srcs, et, dir, dstLabel, withProps, over, out) {
			storage.AppendNeighborsBatch(s, srcs, et, dir, dstLabel, withProps, out)
		}
		clear(over) // a pooled buffer pins no overlay list
		*buf = over
		overlayRunBufs.Put(buf)
		if spliced {
			return
		}
	}
	g.NeighborsBatch(srcs, et, dir, dstLabel, withProps, out)
}

// overlayRunBufs recycles overlayRuns' result buffers. PackNeighborsBatch
// copies the segments out, so a buffer is free again when the call returns —
// and a request over thousands of written sources reuses the one the last
// such request grew, instead of growing (and zeroing) a fresh one by doubling
// on every expand.
var overlayRunBufs = sync.Pool{New: func() any { return new([]storage.OverlayRun) }}

// overlayRuns appends to over, in request order, the visible overlay
// segments of the sources that have any for the requested family (Out before
// In under Both).
func (s *Snapshot) overlayRuns(over []storage.OverlayRun, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []storage.OverlayRun {
	dirs := []catalog.Direction{dir}
	if dir == catalog.Both {
		dirs = []catalog.Direction{catalog.Out, catalog.In}
	}
	for i, v := range srcs {
		if v == vector.NilVID {
			continue
		}
		vo := s.m.overlayOf(v)
		if vo == nil {
			continue
		}
		vo.mu.RLock()
		if vo.visibleNew(s.ver) {
			for _, d := range dirs {
				for _, f := range vo.adj {
					if !f.key.matches(et, d, dstLabel) {
						continue
					}
					if seg, ok := f.list.segment(f.list.visiblePrefix(s.ver), withProps); ok {
						over = append(over, storage.OverlayRun{Row: int32(i), Dir: d, Seg: seg})
					}
				}
			}
		}
		vo.mu.RUnlock()
	}
	return over
}

// Degree implements storage.View.
func (s *Snapshot) Degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int {
	n := 0
	for _, seg := range s.Neighbors(nil, src, et, dir, dstLabel, false) {
		n += len(seg.VIDs)
	}
	return n
}

// ScanLabel implements storage.View. With no visible created vertices the
// base slice is returned as-is (zero copy).
func (s *Snapshot) ScanLabel(label catalog.LabelID) []vector.VID {
	base := s.m.graph.ScanLabel(label)
	if !s.hasOverlays {
		return base
	}
	s.m.mu.RLock()
	createdList := s.m.byLabel[label]
	// Visible prefix: created lists are version-ascending.
	n := sort.Search(len(createdList), func(i int) bool { return createdList[i].ver > s.ver })
	var extra []vector.VID
	if n > 0 {
		extra = make([]vector.VID, n)
		for i := 0; i < n; i++ {
			extra[i] = createdList[i].vid
		}
	}
	s.m.mu.RUnlock()
	if len(extra) == 0 {
		return base
	}
	out := make([]vector.VID, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// NumVertices implements storage.View.
func (s *Snapshot) NumVertices() int {
	n := s.baseCount()
	if !s.hasOverlays {
		return n
	}
	s.m.mu.RLock()
	created := s.m.created
	n += sort.Search(len(created), func(i int) bool { return created[i].ver > s.ver })
	s.m.mu.RUnlock()
	return n
}
