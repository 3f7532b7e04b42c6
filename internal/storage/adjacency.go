// Package storage implements the GES graph storage layer (§5): adjacency
// lists held as an array-of-arrays (adjMeta indexing segments of a large
// adjArray), columnar vertex property tables, edge property arrays aligned
// with the adjacency array, dense internal vertex IDs with external-ID maps,
// and a size-classed memory pool supporting the copy-on-write transaction
// layer.
//
// The store is optimized for the read-dominant workloads the paper targets:
// Neighbors hands out (pointer,length) views of adjArray segments that the
// executor's pointer-based join consumes without copying. Topology updates
// use the paper's "allocate larger space once insertions take all slots"
// scheme: a full slot is relocated to the tail of adjArray with doubled
// capacity and the old region is marked dead.
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

// AdjList is one adjacency family. meta is indexed by *global* VID (the
// paper's adjMeta of size |V|); arr is the shared neighbor array; per-edge
// property columns run parallel to arr.
//
// Lock order (checked by geslint rule R2): mutators hold wmu and publish
// delta-run replacements under the delta's map lock (adjDelta.mu); family
// creation holds Graph.famMu and reads the catalog's edge schemas
// (Catalog.mu is a leaf read lock no catalog path nests further). Neither
// inner lock ever nests with the other or back into an outer one.
//
//geslint:lockorder AdjList.wmu < adjDelta.mu
//geslint:lockorder Graph.famMu < Catalog.mu
type AdjList struct {
	meta []adjMeta
	arr  []vector.VID

	// Edge properties, aligned with arr. propKinds comes from the catalog
	// schema of the edge type; each present kind uses the matching slice.
	propKinds []vector.Kind
	propI64   [][]int64
	propF64   [][]float64
	propStr   [][]string

	deadSlots int // entries abandoned by slot relocation

	// wmu serializes every mutator of the family — insert/del, Compact,
	// and the background reseal's rebuild. Readers never take it: sealed
	// reads go through snap (plus its delta's own synchronization), and
	// live-slot reads only happen while the family is single-writer by
	// contract (bulk load).
	wmu sync.Mutex

	// resealing is the claim flag for the family's background reseal: set
	// by CompareAndSwap when a rebuild is scheduled, cleared when it
	// publishes, so at most one reseal per family is ever in flight.
	resealing atomic.Bool

	// snap is the sealed CSR image (csr.go), carrying its delta overlay;
	// nil until the family is first sealed. Readers load it once per
	// operation so a concurrent re-seal can never mix layouts within one
	// Segment.
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

// trim drops the append slack of the live arrays. meta spans the global VID
// range in every family, so after a bulk load its slack alone is a few
// percent of the graph. Caller holds wmu (or is the single bulk writer).
func (a *AdjList) trim() {
	a.meta = vector.Clipped(a.meta)
	a.arr = vector.Clipped(a.arr)
	for i := range a.propKinds {
		a.propI64[i] = vector.Clipped(a.propI64[i])
		a.propF64[i] = vector.Clipped(a.propF64[i])
		a.propStr[i] = vector.Clipped(a.propStr[i])
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

// insert appends one edge. While a sealed image is published the mutation
// lands in both the live arrays (the canonical store the next reseal
// rebuilds from) and the image's delta, so readers keep the sealed fast
// paths; a family with no image (bulk phase, or first created after the
// seal) takes the plain live-array path.
func (a *AdjList) insert(src, dst vector.VID, props []vector.Value) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		c.delta.insert(src, dst, props)
	}
	a.append(src, dst, props)
}

// del removes one edge (see insert). The delta picks the occurrence to hide
// and reports its property tuple, and the live removal targets the matching
// tuple, keeping both sides' content in lockstep.
func (a *AdjList) del(src, dst vector.VID) bool {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		tuple, ok := c.delta.remove(c, src, dst)
		if !ok {
			return false
		}
		a.removeMatching(src, dst, tuple)
		return true
	}
	return a.remove(src, dst)
}

// append adds dst (with optional edge property values) to src's slot,
// relocating the slot with doubled capacity when full. Callers go through
// insert (or the single-writer bulk path) — append itself never touches
// the published snapshot.
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
		a.deadSlots += int(m.cap)
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

// compactDeadFraction is the dead-entry share of arr above which Compact
// actually rebuilds the family.
const compactDeadFraction = 0.25

// Compact rebuilds arr and the aligned edge-property columns when more than
// compactDeadFraction of the entries are dead regions abandoned by slot
// relocation. Slots keep their allocated capacity (the paper's doubled-slot
// headroom), they are just packed back to back, preserving within-slot
// entry order — the rebuild changes the layout, never the content, so a
// published CSR image (and its delta, whose positions reference the image,
// not arr) stays valid throughout. Live-slot readers must not run
// concurrently (outstanding views of the old array remain valid — the old
// memory is simply dropped); sealed readers are unaffected. Returns true
// on rebuild.
func (a *AdjList) Compact() bool {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if len(a.arr) == 0 || float64(a.deadSlots) <= compactDeadFraction*float64(len(a.arr)) {
		return false
	}
	liveCap := 0
	for i := range a.meta {
		liveCap += int(a.meta[i].cap)
	}
	newArr := make([]vector.VID, liveCap)
	newI64 := make([][]int64, len(a.propI64))
	newF64 := make([][]float64, len(a.propF64))
	newStr := make([][]string, len(a.propStr))
	for i, k := range a.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			newI64[i] = make([]int64, liveCap)
		case vector.KindFloat64:
			newF64[i] = make([]float64, liveCap)
		case vector.KindString:
			newStr[i] = make([]string, liveCap)
		}
	}
	off := uint32(0)
	for i := range a.meta {
		m := &a.meta[i]
		copy(newArr[off:off+m.len], a.arr[m.off:m.off+m.len])
		for p, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				copy(newI64[p][off:off+m.len], a.propI64[p][m.off:m.off+m.len])
			case vector.KindFloat64:
				copy(newF64[p][off:off+m.len], a.propF64[p][m.off:m.off+m.len])
			case vector.KindString:
				copy(newStr[p][off:off+m.len], a.propStr[p][m.off:m.off+m.len])
			}
		}
		m.off = off
		off += m.cap
	}
	a.arr = newArr
	a.propI64, a.propF64, a.propStr = newI64, newF64, newStr
	a.deadSlots = 0
	return true
}

// remove deletes the first occurrence of dst in src's slot by shifting the
// last live entry into its place (compacting mark-for-deletion). Callers
// go through del (or the single-writer bulk path).
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

// removeMatching deletes the occurrence of dst in src's slot whose property
// tuple equals want. The overlay may tombstone a different duplicate than
// the slot-order scan would pick, so matching on the tuple keeps the live
// multiset identical to the merged view. Falls back to the first
// occurrence when no tuple matches (only reachable if the two sides ever
// diverged).
func (a *AdjList) removeMatching(src, dst vector.VID, want []vector.Value) bool {
	if len(a.propKinds) == 0 {
		return a.remove(src, dst)
	}
	if int(src) >= len(a.meta) {
		return false
	}
	m := &a.meta[src]
	match, firstAny := -1, -1
	for i := m.off; i < m.off+m.len; i++ {
		if a.arr[i] != dst {
			continue
		}
		if firstAny < 0 {
			firstAny = int(i)
		}
		if a.propsEqualAt(int(i), want) {
			match = int(i)
			break
		}
	}
	if match < 0 {
		match = firstAny
	}
	if match < 0 {
		return false
	}
	a.removeAt(m, match)
	return true
}

// propsEqualAt reports whether entry i's property tuple equals want
// (schema-position-aligned Values).
func (a *AdjList) propsEqualAt(i int, want []vector.Value) bool {
	for p, k := range a.propKinds {
		var v vector.Value
		if p < len(want) {
			v = want[p]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			if a.propI64[p][i] != v.I {
				return false
			}
		case vector.KindFloat64:
			if a.propF64[p][i] != v.F {
				return false
			}
		case vector.KindString:
			if a.propStr[p][i] != v.S {
				return false
			}
		}
	}
	return true
}

// neighbors returns the live segment of src's slot as a view into arr.
func (a *AdjList) neighbors(src vector.VID) []vector.VID {
	if int(src) >= len(a.meta) {
		return nil
	}
	m := a.meta[src]
	return a.arr[m.off : m.off+m.len : m.off+m.len]
}

// degree returns the number of live neighbors of src.
func (a *AdjList) degree(src vector.VID) int {
	if int(src) >= len(a.meta) {
		return 0
	}
	return int(a.meta[src].len)
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

// memBytes returns the approximate resident size of the adjacency family.
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

// edgeCount returns the number of live edges in the family.
func (a *AdjList) edgeCount() int {
	n := 0
	for i := range a.meta {
		n += int(a.meta[i].len)
	}
	return n
}
