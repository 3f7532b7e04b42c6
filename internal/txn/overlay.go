// Package txn implements GES's concurrency control (§5): Multi-Version
// Two-Phase Locking with vertex-level versioning. Write transactions declare
// their write sets up front and acquire vertex locks in canonical order
// (two-phase locking without deadlocks); a commit publishes all its writes
// under one global version. Read queries run against Snapshots — views at one
// version — and never block.
//
// Committed edges live in the storage graph: a commit writes them, stamped
// with its version, into the sealed images' deltas (storage.Graph.CommitEdge),
// a snapshot reads the graph's adjacency as of its version
// (storage.Graph.At), and a reseal folds them into the images up to the GC
// horizon — the oldest pinned snapshot — which the manager is the graph's
// source of. What stays here is per vertex: the creation metadata of vertices
// a transaction created and every vertex's property versions, held in
// immutable records published behind a lock-free slot array. A commit or GC
// replaces a record wholesale, so readers take no lock.
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
// Control): the copy-on-write version chain of its properties and, for a
// vertex born in a transaction, its creation metadata. It is immutable once
// published; a commit or GC publishes a modified copy.
type vertexOverlay struct {
	isNew      bool
	createdVer uint64
	label      catalog.LabelID
	ext        int64
	baseProps  []vector.Value // creation-time property row (schema order)

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

// createdProp returns property pid of a created vertex at version s: its
// newest committed write, else its creation-row value — the typed zero of the
// label's schema where the row has none.
func (vo *vertexOverlay) createdProp(cat *catalog.Catalog, pid catalog.PropID, s uint64) vector.Value {
	if val, ok := vo.propAt(pid, s); ok {
		return val
	}
	var val vector.Value
	if int(pid) < len(vo.baseProps) {
		val = vo.baseProps[pid]
	}
	if val.Kind == vector.KindInvalid {
		if defs := cat.LabelProps(vo.label); int(pid) < len(defs) {
			val = vector.Value{Kind: defs[pid].Kind}
		}
	}
	return val
}
