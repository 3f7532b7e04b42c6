// Package txn implements GES's concurrency control (§5): Multi-Version
// Two-Phase Locking with vertex-level versioning. Write transactions declare
// their write sets up front and acquire vertex locks in canonical order
// (two-phase locking without deadlocks); commits publish copy-on-write
// overlays stamped with a global version. Read queries run against
// Snapshots — immutable views combining the base graph with all overlays at
// or below the snapshot version — and never block.
//
// The base storage.Graph stays immutable once transactions start; all
// mutation lives in overlays. Overlay edge lists are append-only and
// version-ascending per vertex, so a snapshot's view of a list is a prefix —
// readers borrow zero-copy prefix views under a brief read lock.
package txn

import (
	"sync"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// adjKey identifies an overlay adjacency family of one vertex.
type adjKey struct {
	et  catalog.EdgeTypeID
	dir catalog.Direction
	dst catalog.LabelID
}

// overlayAdj is a per-vertex, per-family append-only edge list. Entries are
// version-ascending, so visibility at snapshot version s is a prefix.
type overlayAdj struct {
	dsts []vector.VID
	vers []uint64

	propKinds []vector.Kind
	propI64   [][]int64
	propF64   [][]float64
	propStr   [][]string
}

func newOverlayAdj(defs []catalog.PropDef) *overlayAdj {
	a := &overlayAdj{}
	for _, d := range defs {
		a.propKinds = append(a.propKinds, d.Kind)
		a.propI64 = append(a.propI64, nil)
		a.propF64 = append(a.propF64, nil)
		a.propStr = append(a.propStr, nil)
	}
	return a
}

func (a *overlayAdj) append(dst vector.VID, ver uint64, props []vector.Value) {
	a.dsts = append(a.dsts, dst)
	a.vers = append(a.vers, ver)
	for i, k := range a.propKinds {
		var v vector.Value
		if i < len(props) {
			v = props[i]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			a.propI64[i] = append(a.propI64[i], v.I)
		case vector.KindFloat64:
			a.propF64[i] = append(a.propF64[i], v.F)
		case vector.KindString:
			a.propStr[i] = append(a.propStr[i], v.S)
		}
	}
}

// visiblePrefix returns how many leading entries have version <= s. A
// snapshot is nearly always newer than a list's last entry, so that is
// checked first: one load instead of a search through a cold array.
func (a *overlayAdj) visiblePrefix(s uint64) int {
	lo, hi := 0, len(a.vers)
	if hi == 0 || a.vers[hi-1] <= s {
		return hi
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if a.vers[mid] <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segment renders the visible prefix as a storage segment (views, no copy).
func (a *overlayAdj) segment(n int, withProps bool) (storage.Segment, bool) {
	if n == 0 {
		return storage.Segment{}, false
	}
	seg := storage.Segment{VIDs: a.dsts[:n:n]}
	if withProps {
		for i, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				seg.PropI64 = append(seg.PropI64, a.propI64[i][:n:n])
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindFloat64:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, a.propF64[i][:n:n])
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindString:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, a.propStr[i][:n:n])
			}
		}
	}
	return seg, true
}

// propVersion is one committed property write.
type propVersion struct {
	version uint64
	pid     catalog.PropID
	val     vector.Value
}

// vertexOverlay is the copy-on-write version chain of one vertex (§5,
// Concurrency Control): new snapshots of the vertex's adjacency and
// properties, never touching the base arrays.
type vertexOverlay struct {
	mu sync.RWMutex

	// Creation metadata for vertices born in a transaction.
	isNew      bool
	createdVer uint64
	label      catalog.LabelID
	ext        int64
	baseProps  []vector.Value // creation-time property row (schema order)

	props []propVersion
	// adj holds the vertex's overlay families in first-commit order (one to
	// three in practice), so an AnyLabel read visits them in the same order
	// every time and a lookup is a short scan, not a hash.
	adj []overlayFamily
}

// overlayFamily is one overlay adjacency family of a vertex.
type overlayFamily struct {
	key  adjKey
	list *overlayAdj
}

// matches reports whether the family answers a read of edge type et in
// direction dir (never Both) toward dstLabel, AnyLabel included.
func (k adjKey) matches(et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) bool {
	return k.et == et && k.dir == dir && (dstLabel == storage.AnyLabel || k.dst == dstLabel)
}

// visibleNew reports whether a created vertex exists at snapshot s.
func (vo *vertexOverlay) visibleNew(s uint64) bool {
	return !vo.isNew || vo.createdVer <= s
}

// adjFor returns (creating on demand) the overlay adjacency for key. The
// caller must hold vo.mu.
func (vo *vertexOverlay) adjFor(key adjKey, defs []catalog.PropDef) *overlayAdj {
	for _, f := range vo.adj {
		if f.key == key {
			return f.list
		}
	}
	a := newOverlayAdj(defs)
	vo.adj = append(vo.adj, overlayFamily{key: key, list: a})
	return a
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
