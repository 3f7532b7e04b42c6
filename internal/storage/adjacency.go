// Package storage implements the GES graph storage layer (§5): adjacency
// families, columnar vertex property tables, edge property arrays aligned
// with the adjacency array, dense internal vertex IDs with external-ID maps,
// and a size-classed memory pool supporting the copy-on-write transaction
// layer.
//
// A family's adjacency has one readable representation: an immutable CSR
// image (csr.go) plus its small mutable delta (delta.go). Committed edges land
// in the delta, readers merge the two sides, and a reseal folds the delta into
// a fresh image. Before the graph's first read, the bulk phase appends each
// family's edges to a write-only log (this file) that nothing reads; the first
// seal sorts the log into the image and drops it, and every read or commit of
// a graph still in the bulk phase performs that seal first.
//
// The store is optimized for the read-dominant workloads the paper targets:
// its one adjacency read, NeighborsBatch (pack.go), answers a whole block of sources as
// pieces — a (pointer,length) view of the image for every run the delta
// leaves alone, merged rows only for a run it changes — out of which each
// expand copies the neighbours it keeps.
package storage

import (
	"sync"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// AdjKey identifies one adjacency list family, exactly as in §5: the hash
// table key is the tuple (srcLabel, edgeLabel, dstLabel, direction).
type AdjKey struct {
	Src catalog.LabelID
	Et  catalog.EdgeTypeID
	Dst catalog.LabelID
	Dir catalog.Direction
}

// AdjList is one adjacency family. In the bulk phase its edges accumulate in
// log; the first seal moves them into snap and drops the log, so a sealed
// family holds nothing but its image and that image's delta.
//
// Lock order (checked by geslint rule R2): mutators hold wmu and publish
// delta-run replacements with atomic stores, taking no further lock; family
// creation holds Graph.famMu and reads the catalog's edge schemas
// (Catalog.mu is a leaf read lock no catalog path nests further).
//
//geslint:lockorder Graph.famMu < Catalog.mu
type AdjList struct {
	// log is the bulk phase's edge log, nil once the family is sealed.
	log *edgeLog

	// propKinds comes from the catalog schema of the edge type; the log, the
	// images and the deltas share it.
	propKinds []vector.Kind

	// wmu serializes every mutator of the family — log appends, delta
	// inserts, and the seal. Readers never take it: they go
	// through snap (plus its delta's atomics).
	wmu sync.Mutex

	// resealing is the claim flag for the family's background reseal: set
	// by CompareAndSwap when a rebuild is scheduled, cleared when it
	// publishes, so at most one reseal per family is ever in flight.
	resealing atomic.Bool

	// snap is the sealed CSR image (csr.go), carrying its delta overlay;
	// nil exactly while the family is in the bulk phase. Readers load it
	// once per operation so a concurrent reseal can never mix images within
	// one piece.
	snap atomic.Pointer[csr]
}

func newAdjList(propDefs []catalog.PropDef) *AdjList {
	a := &AdjList{}
	for _, p := range propDefs {
		a.propKinds = append(a.propKinds, p.Kind)
	}
	return a
}

// edgeLog is one family's bulk-phase edges in arrival order: source and
// destination with the edge-property columns aligned. It is appended to and
// sealed, never read.
type edgeLog struct {
	src, dst []vector.VID
	props    EdgeCols
}

// newEdgeLog returns an empty log for a schema of nProps edge properties.
func newEdgeLog(nProps int) *edgeLog {
	return &edgeLog{props: newEdgeCols(nProps)}
}

// insert adds one edge, stamped ver, to the phase's store: the published
// image's delta once the family is sealed, the edge log (whose entries carry
// no versions: the bulk phase has no transactions) before.
func (a *AdjList) insert(src, dst vector.VID, ver uint64, props []vector.Value) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		c.delta.insert(src, dst, ver, props)
		return
	}
	if a.log == nil {
		a.log = newEdgeLog(len(a.propKinds))
	}
	l := a.log
	l.src = append(l.src, src)
	l.dst = append(l.dst, dst)
	for p, k := range a.propKinds {
		var v vector.Value
		if p < len(props) {
			v = props[p]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			l.props.I64[p] = append(l.props.I64[p], v.I)
		case vector.KindFloat64:
			l.props.F64[p] = append(l.props.F64[p], v.F)
		case vector.KindString:
			l.props.Str[p] = append(l.props.Str[p], v.S)
		}
	}
}

// memBytes returns the approximate resident size of the family: its image and
// delta, or its edge log in the bulk phase.
func (a *AdjList) memBytes() int {
	if c := a.snap.Load(); c != nil {
		return c.memBytes() + c.delta.memBytes()
	}
	l := a.log
	if l == nil {
		return 0
	}
	return len(l.src)*8 + l.props.bytes(a.propKinds)
}

// EdgeCols are the edge-property columns aligned element-for-element with
// one neighbour array — an edge log's, an image's, a delta run's, or a
// batch's merged rows — indexed by schema position: only the slice matching
// a property's kind is populated.
type EdgeCols struct {
	I64 [][]int64
	F64 [][]float64
	Str [][]string
}

// newEdgeCols returns empty columns for a schema of nProps properties.
func newEdgeCols(nProps int) EdgeCols {
	return EdgeCols{I64: make([][]int64, nProps), F64: make([][]float64, nProps), Str: make([][]string, nProps)}
}

// Value returns property q of row i, whose schema kind is kind. A kind the
// columns do not store (Bool) reads as its zero value.
func (e *EdgeCols) Value(q int, kind vector.Kind, i int) vector.Value {
	switch kind {
	case vector.KindInt64, vector.KindDate:
		return vector.Value{Kind: kind, I: e.I64[q][i]}
	case vector.KindFloat64:
		return vector.Float64(e.F64[q][i])
	case vector.KindString:
		return vector.String_(e.Str[q][i])
	}
	return vector.Value{Kind: kind}
}

// bytes approximates the columns' resident size.
func (e *EdgeCols) bytes(kinds []vector.Kind) int {
	n := 0
	for p, k := range kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			n += len(e.I64[p]) * 8
		case vector.KindFloat64:
			n += len(e.F64[p]) * 8
		case vector.KindString:
			n += len(e.Str[p]) * 16
			for _, s := range e.Str[p] {
				n += len(s)
			}
		}
	}
	return n
}
