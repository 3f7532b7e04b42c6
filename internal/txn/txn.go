package txn

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// Txn is a write transaction. All writes buffer locally and publish
// atomically at Commit under a single new version; the declared write-set
// locks are held throughout (2PL) and released at the end.
type Txn struct {
	m       *Manager
	locked  []vector.VID
	readVer uint64
	done    bool

	newVerts   []pendingVertex
	newLabels  map[vector.VID]catalog.LabelID
	propWrites []pendingProp
	edgeWrites []pendingEdge
}

type pendingVertex struct {
	vid   vector.VID
	label catalog.LabelID
	ext   int64
	props []vector.Value
}

type pendingProp struct {
	vid vector.VID
	pid catalog.PropID
	val vector.Value
}

type pendingEdge struct {
	et       catalog.EdgeTypeID
	src, dst vector.VID
	props    []vector.Value
}

// ReadVersion returns the version the transaction started at.
func (t *Txn) ReadVersion() uint64 { return t.readVer }

// AddVertex buffers a new vertex with properties in the label's schema
// order and returns its provisional VID, usable immediately as an edge
// endpoint within this transaction.
func (t *Txn) AddVertex(label catalog.LabelID, ext int64, props ...vector.Value) (vector.VID, error) {
	if t.done {
		return vector.NilVID, errTxnDone
	}
	if int(label) >= t.m.graph.Catalog().NumLabels() {
		return vector.NilVID, fmt.Errorf("txn: unknown label %d", label)
	}
	vid := vector.VID(t.m.nextVID.Add(1) - 1)
	t.newVerts = append(t.newVerts, pendingVertex{
		vid: vid, label: label, ext: ext,
		props: append([]vector.Value(nil), props...),
	})
	if t.newLabels == nil {
		t.newLabels = make(map[vector.VID]catalog.LabelID)
	}
	t.newLabels[vid] = label
	return vid, nil
}

// SetProp buffers a property update on a vertex in the write set (or one
// created by this transaction).
func (t *Txn) SetProp(v vector.VID, pid catalog.PropID, val vector.Value) error {
	if t.done {
		return errTxnDone
	}
	if err := t.requireWritable(v); err != nil {
		return err
	}
	t.propWrites = append(t.propWrites, pendingProp{vid: v, pid: pid, val: val})
	return nil
}

// AddEdge buffers a directed edge between two vertices, each of which must
// be in the declared write set or created by this transaction.
func (t *Txn) AddEdge(et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) error {
	if t.done {
		return errTxnDone
	}
	if err := t.requireWritable(src); err != nil {
		return err
	}
	if err := t.requireWritable(dst); err != nil {
		return err
	}
	t.edgeWrites = append(t.edgeWrites, pendingEdge{
		et: et, src: src, dst: dst,
		props: append([]vector.Value(nil), props...),
	})
	return nil
}

// requireWritable enforces the declared-write-set discipline.
func (t *Txn) requireWritable(v vector.VID) error {
	if _, created := t.newLabels[v]; created {
		return nil
	}
	for _, l := range t.locked {
		if l == v {
			return nil
		}
	}
	return fmt.Errorf("txn: vertex %d is not in the declared write set", v)
}

// known reports whether v can be an edge endpoint at commit: a vertex of the
// base graph, one this transaction creates, or one a committed transaction
// created.
func (t *Txn) known(v vector.VID) bool {
	if _, ok := t.newLabels[v]; ok || v < t.m.base {
		return true
	}
	vo := t.m.overlayOf(v)
	return vo != nil && vo.isNew
}

// Commit atomically publishes all buffered writes under a fresh version and
// releases the locks: created vertices and property versions as records, and
// edges, both directions, into the graph's deltas stamped with the version.
// Nothing is visible before the version is published, and snapshots at older
// versions never see any of it.
func (t *Txn) Commit() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	defer t.m.locks.release(t.locked)
	for _, e := range t.edgeWrites {
		for _, v := range [2]vector.VID{e.src, e.dst} {
			if !t.known(v) {
				return fmt.Errorf("txn: unknown vertex %d", v)
			}
		}
	}

	m, g := t.m, t.m.graph
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	ver := m.version.Load() + 1

	// Created vertices: the graph learns each label before an edge names it.
	if len(t.newVerts) > 0 {
		idx := &createdIndex{}
		if cur := m.created.Load(); cur != nil {
			idx.all = cur.all
			idx.byLabel = append(idx.byLabel, cur.byLabel...)
		}
		for _, nv := range t.newVerts {
			if err := g.AddCreatedVertex(nv.vid, nv.label); err != nil {
				return err // unreachable: AddVertex checked the label
			}
			m.publish(nv.vid, &vertexOverlay{isNew: true, createdVer: ver, label: nv.label, ext: nv.ext, baseProps: nv.props})
			e := extEntry{vid: nv.vid, ver: ver}
			m.byExt.Store(extKey{label: nv.label, ext: nv.ext}, e)
			idx.all = append(idx.all, e)
			for int(nv.label) >= len(idx.byLabel) {
				idx.byLabel = append(idx.byLabel, nil)
			}
			idx.byLabel[nv.label] = append(idx.byLabel[nv.label], e)
		}
		m.created.Store(idx)
	}
	for _, pw := range t.propWrites {
		m.publish(pw.vid, m.overlayOf(pw.vid).withProp(propVersion{version: ver, pid: pw.pid, val: pw.val}))
	}
	for _, e := range t.edgeWrites {
		if err := g.CommitEdge(ver, e.et, e.src, e.dst, e.props...); err != nil {
			return err // unreachable: both endpoints were checked above
		}
	}
	// Release point: snapshots taken after this see version ver.
	m.version.Store(ver)
	return nil
}

// Abort discards buffered writes and releases locks.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.m.locks.release(t.locked)
}
