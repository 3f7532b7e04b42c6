// Package txn implements GES's concurrency control (§5): Multi-Version
// Two-Phase Locking with vertex-level versioning. Write transactions declare
// their write sets up front and acquire vertex locks in canonical order
// (two-phase locking without deadlocks); a commit publishes all its writes
// under one global version. Read queries run against Snapshots — views at one
// version — and never block.
//
// A commit writes its vertices and edges into the storage graph, stamped with
// its version: each created vertex as a row past the base arrays
// (storage.Graph.CommitVertex), each edge into the sealed images' deltas
// (storage.Graph.CommitEdge). A snapshot reads the graph as of its version
// (storage.Graph.At), and a reseal folds the edges into the images up to the
// GC horizon — the oldest pinned snapshot — which the manager is the graph's
// source of: the fold is how old versions are collected. What stays here is
// the one per-vertex versioned state, the property versions SetProp commits,
// held in immutable records published behind a lock-free slot array. A
// commit replaces a record wholesale, so readers take no lock.
package txn

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// propVersion is one committed property write.
type propVersion struct {
	version uint64
	pid     catalog.PropID
	val     vector.Value
}

// vertexOverlay is the published record of one vertex (§5, Concurrency
// Control): the copy-on-write version chain of its properties. It is
// immutable once published; a commit publishes a modified copy.
type vertexOverlay struct {
	props []propVersion
}

// withProp returns a copy of the record (a fresh one for nil) with pv
// appended to its property chain.
func (vo *vertexOverlay) withProp(pv propVersion) *vertexOverlay {
	var next vertexOverlay
	if vo != nil {
		next = *vo
	}
	next.props = append(next.props[:len(next.props):len(next.props)], pv)
	return &next
}

// propAt returns the newest committed value of pid at or below version s.
func (vo *vertexOverlay) propAt(pid catalog.PropID, s uint64) (vector.Value, bool) {
	for i := len(vo.props) - 1; i >= 0; i-- {
		pv := vo.props[i]
		if pv.pid == pid && pv.version <= s {
			return pv.val, true
		}
	}
	return vector.Value{}, false
}
