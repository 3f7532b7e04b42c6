// Package storage implements the GES graph storage layer (§5): adjacency
// families, columnar vertex property tables, edge property arrays aligned
// with the adjacency array, dense internal vertex IDs with external-ID maps,
// and a size-classed memory pool supporting the copy-on-write transaction
// layer.
//
// The phase decides how a family's adjacency is held, and at any time it is
// held exactly once. While bulk loading, a family is the paper's
// array-of-arrays (adjMeta indexing slots of a large adjArray, this file):
// an append relocates a full slot to the tail with doubled capacity, "allocate
// larger space once insertions take all slots". Sealing sorts the slots into
// an immutable CSR image (csr.go) and releases them; from then on the image
// plus its small mutable delta (delta.go) is the store — edge mutations land
// in the delta, readers merge the two sides, and a reseal folds the delta
// into a fresh image.
//
// Either way the store is optimized for the read-dominant workloads the paper
// targets: Neighbors hands out (pointer,length) views of storage-owned runs
// that the executor's pointer-based join consumes without copying.
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

// adjMeta is the per-vertex slot descriptor: where the vertex's neighbor
// segment lives in adjArray and how much of it is used.
type adjMeta struct {
	off uint32 // start index in arr
	len uint32 // used entries
	cap uint32 // allocated entries (len <= cap)
}

// AdjList is one adjacency family. Until the family is sealed it is the bulk
// builder: meta is indexed by *global* VID (the paper's adjMeta of size |V|),
// arr is the shared neighbor array and the per-edge property columns run
// parallel to arr. Seal moves the content into snap and drops the builder
// arrays, so a sealed family holds nothing but its image and that image's
// delta.
//
// Lock order (checked by geslint rule R2): mutators hold wmu and publish
// delta-run replacements with atomic stores, taking no further lock; family
// creation holds Graph.famMu and reads the catalog's edge schemas
// (Catalog.mu is a leaf read lock no catalog path nests further).
//
//geslint:lockorder Graph.famMu < Catalog.mu
type AdjList struct {
	meta []adjMeta
	arr  []vector.VID

	// Edge properties, aligned with arr. propKinds comes from the catalog
	// schema of the edge type (it outlives the builder: images and deltas
	// share it); each present kind uses the matching slice.
	propKinds []vector.Kind
	propI64   [][]int64
	propF64   [][]float64
	propStr   [][]string

	// wmu serializes every mutator of the family — insert/del and the
	// reseal's rebuild. Readers never take it: sealed reads go through snap
	// (plus its delta's atomics), and live-slot reads only happen while the
	// family is single-writer by contract (bulk load).
	wmu sync.Mutex

	// resealing is the claim flag for the family's background reseal: set
	// by CompareAndSwap when a rebuild is scheduled, cleared when it
	// publishes, so at most one reseal per family is ever in flight.
	resealing atomic.Bool

	// snap is the sealed CSR image (csr.go), carrying its delta overlay;
	// nil exactly while the family is in the bulk phase. Readers load it
	// once per operation so a concurrent reseal can never mix images within
	// one Segment.
	snap atomic.Pointer[csr] //geslint:atomicptr
}

func newAdjList(propDefs []catalog.PropDef) *AdjList {
	a := &AdjList{}
	for _, p := range propDefs {
		a.propKinds = append(a.propKinds, p.Kind)
		a.propI64 = append(a.propI64, nil)
		a.propF64 = append(a.propF64, nil)
		a.propStr = append(a.propStr, nil)
	}
	return a
}

// ensure makes meta addressable for vid.
func (a *AdjList) ensure(vid vector.VID) {
	if d := int(vid) + 1 - len(a.meta); d > 0 {
		a.meta = append(a.meta, make([]adjMeta, d)...)
	}
}

// growProps extends every edge-property array to match len(a.arr) with one
// bulk zero-filled extension per column.
func (a *AdjList) growProps(n int) {
	for i, k := range a.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			if d := n - len(a.propI64[i]); d > 0 {
				a.propI64[i] = append(a.propI64[i], make([]int64, d)...)
			}
		case vector.KindFloat64:
			if d := n - len(a.propF64[i]); d > 0 {
				a.propF64[i] = append(a.propF64[i], make([]float64, d)...)
			}
		case vector.KindString:
			if d := n - len(a.propStr[i]); d > 0 {
				a.propStr[i] = append(a.propStr[i], make([]string, d)...)
			}
		}
	}
}

// insert appends one edge, stamped ver, to the phase's store: the published
// image's delta once the family is sealed, the builder slots (which carry no
// versions: the bulk phase has no transactions) before.
func (a *AdjList) insert(src, dst vector.VID, ver uint64, props []vector.Value) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		c.delta.insert(src, dst, ver, props)
		return
	}
	a.append(src, dst, props)
}

// del removes one edge from the phase's store (see insert).
func (a *AdjList) del(src, dst vector.VID) bool {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		return c.delta.remove(c, src, dst)
	}
	return a.remove(src, dst)
}

// append adds dst (with optional edge property values) to src's slot,
// relocating the slot with doubled capacity when full (the abandoned region
// stays behind until the seal copies the live slots out). Callers go through
// insert: append is the bulk phase's half of it.
func (a *AdjList) append(src, dst vector.VID, props []vector.Value) {
	a.ensure(src)
	m := &a.meta[src]
	if m.len == m.cap {
		// Relocate to tail with doubled capacity (min 4).
		newCap := m.cap * 2
		if newCap < 4 {
			newCap = 4
		}
		newOff := uint32(len(a.arr))
		a.arr = append(a.arr, make([]vector.VID, newCap)...)
		a.growProps(len(a.arr))
		copy(a.arr[newOff:], a.arr[m.off:m.off+m.len])
		for i, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				copy(a.propI64[i][newOff:], a.propI64[i][m.off:m.off+m.len])
			case vector.KindFloat64:
				copy(a.propF64[i][newOff:], a.propF64[i][m.off:m.off+m.len])
			case vector.KindString:
				copy(a.propStr[i][newOff:], a.propStr[i][m.off:m.off+m.len])
			}
		}
		m.off, m.cap = newOff, newCap
	}
	pos := m.off + m.len
	a.arr[pos] = dst
	for i, k := range a.propKinds {
		var v vector.Value
		if i < len(props) {
			v = props[i]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			a.propI64[i][pos] = v.I
		case vector.KindFloat64:
			a.propF64[i][pos] = v.F
		case vector.KindString:
			a.propStr[i][pos] = v.S
		}
	}
	m.len++
}

// remove deletes the first occurrence of dst in src's slot by shifting the
// last live entry into its place (compacting mark-for-deletion). Callers go
// through del: remove is the bulk phase's half of it.
func (a *AdjList) remove(src, dst vector.VID) bool {
	if int(src) >= len(a.meta) {
		return false
	}
	m := &a.meta[src]
	for i := m.off; i < m.off+m.len; i++ {
		if a.arr[i] == dst {
			a.removeAt(m, int(i))
			return true
		}
	}
	return false
}

// removeAt deletes entry i of slot m by shifting the last live entry into
// its place.
func (a *AdjList) removeAt(m *adjMeta, i int) {
	last := int(m.off + m.len - 1)
	a.arr[i] = a.arr[last]
	for p, k := range a.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			a.propI64[p][i] = a.propI64[p][last]
		case vector.KindFloat64:
			a.propF64[p][i] = a.propF64[p][last]
		case vector.KindString:
			a.propStr[p][i] = a.propStr[p][last]
		}
	}
	m.len--
}

// neighbors returns the live segment of src's slot as a view into arr.
func (a *AdjList) neighbors(src vector.VID) []vector.VID {
	if int(src) >= len(a.meta) {
		return nil
	}
	m := a.meta[src]
	return a.arr[m.off : m.off+m.len : m.off+m.len]
}

// edgePropI64 returns the int64/date edge-property segment aligned with
// neighbors(src) for property index p.
func (a *AdjList) edgePropI64(src vector.VID, p int) []int64 {
	if int(src) >= len(a.meta) {
		return nil
	}
	m := a.meta[src]
	return a.propI64[p][m.off : m.off+m.len : m.off+m.len]
}

func (a *AdjList) edgePropF64(src vector.VID, p int) []float64 {
	if int(src) >= len(a.meta) {
		return nil
	}
	m := a.meta[src]
	return a.propF64[p][m.off : m.off+m.len : m.off+m.len]
}

func (a *AdjList) edgePropStr(src vector.VID, p int) []string {
	if int(src) >= len(a.meta) {
		return nil
	}
	m := a.meta[src]
	return a.propStr[p][m.off : m.off+m.len : m.off+m.len]
}

// memBytes returns the approximate resident size of the builder arrays.
func (a *AdjList) memBytes() int {
	n := len(a.meta)*12 + len(a.arr)*4
	for i, k := range a.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			n += len(a.propI64[i]) * 8
		case vector.KindFloat64:
			n += len(a.propF64[i]) * 8
		case vector.KindString:
			n += len(a.propStr[i]) * 16
			for _, s := range a.propStr[i] {
				n += len(s)
			}
		}
	}
	return n
}

// liveEdges returns the number of edges a reader of the family sees.
func (a *AdjList) liveEdges() int {
	if c := a.snap.Load(); c != nil {
		return c.liveEntries()
	}
	n := 0
	for i := range a.meta {
		n += int(a.meta[i].len)
	}
	return n
}
