package txn

import (
	"fmt"
	"slices"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// Txn is a write transaction. All writes buffer locally and publish
// atomically at Commit under a single new version; the declared write-set
// locks are held throughout (2PL) and released at the end.
type Txn struct {
	m      *Manager
	locked []vector.VID
	done   bool

	newVerts   []pendingVertex
	edgeWrites []pendingEdge
}

type pendingVertex struct {
	vid   vector.VID
	label catalog.LabelID
	ext   int64
	props []vector.Value
}

type pendingEdge struct {
	et       catalog.EdgeTypeID
	src, dst vector.VID
	props    []vector.Value
}

// AddVertex buffers a new vertex with properties in the label's schema
// order and returns its VID, allocated now and usable immediately as an edge
// endpoint within this transaction. An aborted transaction leaves its VIDs
// unused.
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
	return vid, nil
}

// AddEdge buffers a directed edge of a known type between two vertices, each
// of which must be in the declared write set or created by this transaction.
func (t *Txn) AddEdge(et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) error {
	if t.done {
		return errTxnDone
	}
	if int(et) >= t.m.graph.Catalog().NumEdgeTypes() {
		return fmt.Errorf("txn: unknown edge type %d", et)
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
	if t.creates(v) || slices.Contains(t.locked, v) {
		return nil
	}
	return fmt.Errorf("txn: vertex %d is not in the declared write set", v)
}

// creates reports whether this transaction creates v.
func (t *Txn) creates(v vector.VID) bool {
	return slices.ContainsFunc(t.newVerts, func(nv pendingVertex) bool { return nv.vid == v })
}

// Commit atomically publishes all buffered writes under a fresh version and
// releases the locks: created vertices as graph rows and edges, both
// directions, into the graph's deltas, stamped with the version. Nothing is
// visible to a snapshot before the version is published, and snapshots at
// older versions never see any of it.
func (t *Txn) Commit() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	defer t.m.locks.release(t.locked)
	for _, e := range t.edgeWrites {
		for _, v := range [2]vector.VID{e.src, e.dst} {
			if !t.creates(v) && !t.m.graph.HasVertex(v) {
				return fmt.Errorf("txn: unknown vertex %d", v)
			}
		}
	}

	m, g := t.m, t.m.graph
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	ver := m.version.Load() + 1

	// Created vertices first: the graph holds each before an edge names it.
	for _, nv := range t.newVerts {
		if err := g.CommitVertex(ver, nv.vid, nv.label, nv.ext, nv.props...); err != nil {
			return err // unreachable: AddVertex checked the label
		}
	}
	for _, e := range t.edgeWrites {
		if err := g.CommitEdge(ver, e.et, e.src, e.dst, e.props...); err != nil {
			return err // unreachable: AddEdge checked the type, and both endpoints were checked above
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
