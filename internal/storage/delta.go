// Delta overlay: the small mutable side of a sealed CSR image, the piece
// that lets the sealed read paths survive sustained incremental updates
// (§5's tombstone-and-regrow design under MV2PL). Every image sealCSR
// builds carries an adjDelta; while it is empty the image serves exactly as
// before (zero-copy shared batches, sorted runs). An AddEdge lands in a
// per-source copy-on-write insert run, a DeleteEdge tombstones one sealed
// neighbor position (or retracts a delta insert), and readers merge the two
// sides with a per-source two-cursor walk that preserves the ascending-VID
// order — so galloping intersection and the WCOJ path keep engaging instead
// of falling back to hash sets. The delta is the sealed phase's only write
// target: when it outgrows the reseal policy, reseal.go runs the same merge
// over every source of just that family, off the read path, and swaps the
// result in atomically as a fresh (empty-delta) image.
//
// Concurrency contract: all mutators hold AdjList.wmu, so delta writes are
// serialized; readers never lock it. Published deltaRuns are immutable —
// an insert or retraction replaces the run wholesale under adjDelta.mu,
// which readers take only in read mode and only to look the run up.
// Tombstone words are atomics: a reader observes each set bit or not,
// either way seeing a consistent point-in-time view of its source's run.
package storage

import (
	"sort"
	"sync"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// adjDelta overlays one sealed csr image: per-source sorted insert runs plus
// a tombstone bitmap over the image's neighbor positions. It is paired 1:1
// with its image (csr.delta) and published with it, so a reader that loaded
// an image always merges against the matching delta.
//
//geslint:snapshot-owner paired 1:1 with its sealed image and published behind the same atomic pointer; mutated only under AdjList.wmu through atomics and copy-on-write runs
type adjDelta struct {
	mu  sync.RWMutex             // guards the ins map (readers: lookup only)
	ins map[vector.VID]*deltaRun // per-source insert runs, copy-on-write

	// tombs is a fixed-size bitmap over the sealed image's neighbor
	// positions: bit set = entry deleted. Written only under AdjList.wmu
	// (Load|Store read-modify-write is race-free there); read lock-free.
	tombs []atomic.Uint64

	nIns   atomic.Int64 // live delta insert entries
	nTombs atomic.Int64 // tombstoned sealed positions

	propKinds []vector.Kind // shared with the owning family's schema
}

// newAdjDelta sizes an empty delta for an image of sealedLen neighbors.
func newAdjDelta(sealedLen int, kinds []vector.Kind) *adjDelta {
	return &adjDelta{
		ins:       make(map[vector.VID]*deltaRun),
		tombs:     make([]atomic.Uint64, (sealedLen+63)/64),
		propKinds: kinds,
	}
}

// isEmpty reports whether the delta holds no inserts and no tombstones —
// the gate for the zero-copy shared batch path.
func (d *adjDelta) isEmpty() bool { return d.nIns.Load() == 0 && d.nTombs.Load() == 0 }

// depth is the total overlay entry count (inserts plus tombstones).
func (d *adjDelta) depth() int64 { return d.nIns.Load() + d.nTombs.Load() }

// runOf returns src's published insert run, or nil.
func (d *adjDelta) runOf(src vector.VID) *deltaRun {
	if d.nIns.Load() == 0 {
		return nil
	}
	d.mu.RLock()
	r := d.ins[src]
	d.mu.RUnlock()
	return r
}

// tombstoned reports whether sealed neighbor position pos is deleted.
func (d *adjDelta) tombstoned(pos int) bool {
	return d.tombs[pos>>6].Load()&(1<<uint(pos&63)) != 0
}

// setTombstone marks sealed position pos dead. The Load|Store
// read-modify-write is safe because tombstone words are written only under
// AdjList.wmu (atomic.Uint64.Or would need a newer Go than the module
// targets).
func (d *adjDelta) setTombstone(pos int) {
	w := &d.tombs[pos>>6]
	w.Store(w.Load() | 1<<uint(pos&63))
}

// insert records one appended edge src→dst (props ordered per the edge
// schema) by replacing src's run with its copy-on-write successor. Caller
// holds AdjList.wmu.
func (d *adjDelta) insert(src, dst vector.VID, props []vector.Value) {
	nr := d.ins[src].withInsert(dst, props, d.propKinds) // bare read is safe: wmu serializes all map writers
	d.mu.Lock()
	d.ins[src] = nr
	d.mu.Unlock()
	d.nIns.Add(1)
}

// remove hides one occurrence of src→dst from the merged view: the first
// non-tombstoned sealed position when one exists (sealed entries die by
// tombstone), otherwise the earliest delta insert (inserts die by
// copy-on-write retraction) — always the occurrence inserted first. Caller
// holds AdjList.wmu.
func (d *adjDelta) remove(c *csr, src, dst vector.VID) bool {
	if int(src) < len(c.offsets)-1 {
		lo, hi := int(c.offsets[src]), int(c.offsets[src+1])
		run := c.neighbors[lo:hi]
		at := sort.Search(len(run), func(i int) bool { return run[i] >= dst })
		for pos := lo + at; pos < hi && c.neighbors[pos] == dst; pos++ {
			if d.tombstoned(pos) {
				continue
			}
			d.setTombstone(pos)
			d.nTombs.Add(1)
			return true
		}
	}
	old := d.ins[src] // bare read is safe: wmu serializes all map writers
	if old == nil {
		return false
	}
	nr, ok := old.withRemove(dst, d.propKinds)
	if !ok {
		return false
	}
	d.mu.Lock()
	if nr == nil {
		delete(d.ins, src)
	} else {
		d.ins[src] = nr
	}
	d.mu.Unlock()
	d.nIns.Add(-1)
	return true
}

// memBytes approximates the delta's resident size.
func (d *adjDelta) memBytes() int {
	n := len(d.tombs) * 8
	d.mu.RLock()
	for _, r := range d.ins {
		n += 48 + len(r.dsts)*4
		for p, k := range d.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				n += len(r.propI64[p]) * 8
			case vector.KindFloat64:
				n += len(r.propF64[p]) * 8
			case vector.KindString:
				n += len(r.propStr[p]) * 16
				for _, s := range r.propStr[p] {
					n += len(s)
				}
			}
		}
	}
	d.mu.RUnlock()
	return n
}

// deltaRun is one source's overlay insert run: destinations sorted ascending
// (insertion order among equal VIDs, as the bulk seal's stable sort leaves
// them) with
// edge-property columns aligned element-for-element, indexed by schema
// position like csr.prop*.
//
//geslint:snapshot-owner immutable once published in adjDelta.ins; mutation replaces the run wholesale under AdjList.wmu
type deltaRun struct {
	dsts    []vector.VID
	propI64 [][]int64
	propF64 [][]float64
	propStr [][]string
}

// withInsert returns the run's successor with dst inserted after any equal
// destinations (stable: delta entries keep insertion order on ties). A nil
// receiver yields a one-entry run.
func (r *deltaRun) withInsert(dst vector.VID, props []vector.Value, kinds []vector.Kind) *deltaRun {
	n, at := 0, 0
	if r != nil {
		n = len(r.dsts)
		at = sort.Search(n, func(i int) bool { return r.dsts[i] > dst })
	}
	nr := &deltaRun{dsts: make([]vector.VID, n+1)}
	if r != nil {
		copy(nr.dsts[:at], r.dsts[:at])
		copy(nr.dsts[at+1:], r.dsts[at:])
	}
	nr.dsts[at] = dst
	if len(kinds) == 0 {
		return nr
	}
	nr.propI64 = make([][]int64, len(kinds))
	nr.propF64 = make([][]float64, len(kinds))
	nr.propStr = make([][]string, len(kinds))
	for p, k := range kinds {
		var v vector.Value
		if p < len(props) {
			v = props[p]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			col := make([]int64, n+1)
			if r != nil {
				copy(col[:at], r.propI64[p][:at])
				copy(col[at+1:], r.propI64[p][at:])
			}
			col[at] = v.I
			nr.propI64[p] = col
		case vector.KindFloat64:
			col := make([]float64, n+1)
			if r != nil {
				copy(col[:at], r.propF64[p][:at])
				copy(col[at+1:], r.propF64[p][at:])
			}
			col[at] = v.F
			nr.propF64[p] = col
		case vector.KindString:
			col := make([]string, n+1)
			if r != nil {
				copy(col[:at], r.propStr[p][:at])
				copy(col[at+1:], r.propStr[p][at:])
			}
			col[at] = v.S
			nr.propStr[p] = col
		}
	}
	return nr
}

// withRemove returns the run's successor with the earliest occurrence of
// dst retracted. ok=false when dst is absent; a nil successor means the run
// emptied.
func (r *deltaRun) withRemove(dst vector.VID, kinds []vector.Kind) (*deltaRun, bool) {
	at := sort.Search(len(r.dsts), func(i int) bool { return r.dsts[i] >= dst })
	if at == len(r.dsts) || r.dsts[at] != dst {
		return r, false
	}
	n := len(r.dsts)
	if n == 1 {
		return nil, true
	}
	nr := &deltaRun{dsts: make([]vector.VID, n-1)}
	copy(nr.dsts[:at], r.dsts[:at])
	copy(nr.dsts[at:], r.dsts[at+1:])
	if len(kinds) == 0 {
		return nr, true
	}
	nr.propI64 = make([][]int64, len(kinds))
	nr.propF64 = make([][]float64, len(kinds))
	nr.propStr = make([][]string, len(kinds))
	for p, k := range kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			col := make([]int64, n-1)
			copy(col[:at], r.propI64[p][:at])
			copy(col[at:], r.propI64[p][at+1:])
			nr.propI64[p] = col
		case vector.KindFloat64:
			col := make([]float64, n-1)
			copy(col[:at], r.propF64[p][:at])
			copy(col[at:], r.propF64[p][at+1:])
			nr.propF64[p] = col
		case vector.KindString:
			col := make([]string, n-1)
			copy(col[:at], r.propStr[p][:at])
			copy(col[at:], r.propStr[p][at+1:])
			nr.propStr[p] = col
		}
	}
	return nr, true
}

// runMerger packs per-source two-cursor merges of sealed and delta runs
// back to back into owned buffers — the delta-overlay analogue of the
// shared CSR batch, and the whole of a reseal (csr.resealed). Ties between a
// sealed entry and a delta insert emit the sealed entry first: it was
// inserted first, so duplicates stay in insertion order and a merged read is
// byte-identical to a read after a reseal.
type runMerger struct {
	c         *csr
	withProps bool
	vids      []vector.VID
	pi64      [][]int64
	pf64      [][]float64
	pstr      [][]string
}

// init readies the buffers with room for rows entries: 0 for a reader, which
// appends as it goes, the exact merged count for a reseal, whose long-lived
// image must carry no slack.
func (m *runMerger) init(rows int) {
	m.vids = make([]vector.VID, 0, rows)
	if !m.withProps {
		return
	}
	n := len(m.c.propKinds)
	m.pi64 = make([][]int64, n)
	m.pf64 = make([][]float64, n)
	m.pstr = make([][]string, n)
	for p, k := range m.c.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			m.pi64[p] = make([]int64, 0, rows)
		case vector.KindFloat64:
			m.pf64[p] = make([]float64, 0, rows)
		case vector.KindString:
			m.pstr[p] = make([]string, 0, rows)
		}
	}
}

func (m *runMerger) emitSealed(pos int) {
	m.vids = append(m.vids, m.c.neighbors[pos])
	if !m.withProps {
		return
	}
	for p, k := range m.c.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			m.pi64[p] = append(m.pi64[p], m.c.propI64[p][pos])
		case vector.KindFloat64:
			m.pf64[p] = append(m.pf64[p], m.c.propF64[p][pos])
		case vector.KindString:
			m.pstr[p] = append(m.pstr[p], m.c.propStr[p][pos])
		}
	}
}

func (m *runMerger) emitDelta(r *deltaRun, j int) {
	m.vids = append(m.vids, r.dsts[j])
	if !m.withProps {
		return
	}
	for p, k := range m.c.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			m.pi64[p] = append(m.pi64[p], r.propI64[p][j])
		case vector.KindFloat64:
			m.pf64[p] = append(m.pf64[p], r.propF64[p][j])
		case vector.KindString:
			m.pstr[p] = append(m.pstr[p], r.propStr[p][j])
		}
	}
}

// merge appends src's merged run: sealed positions (skipping tombstones)
// interleaved with the delta insert run, ascending by VID, sealed first on
// ties.
func (m *runMerger) merge(src vector.VID) {
	c := m.c
	d := c.delta
	lo, hi := 0, 0
	if int(src) < len(c.offsets)-1 {
		lo, hi = int(c.offsets[src]), int(c.offsets[src+1])
	}
	r := d.runOf(src)
	rn := 0
	if r != nil {
		rn = len(r.dsts)
	}
	i, j := lo, 0
	for {
		for i < hi && d.tombstoned(i) {
			i++
		}
		if i >= hi && j >= rn {
			return
		}
		if j >= rn || (i < hi && c.neighbors[i] <= r.dsts[j]) {
			m.emitSealed(i)
			i++
		} else {
			m.emitDelta(r, j)
			j++
		}
	}
}

// mergedSegment builds the owned merged Segment of src's run. Sorted holds
// by construction; ok=false when the merged run is empty.
func (c *csr) mergedSegment(src vector.VID, withProps bool) (Segment, bool) {
	m := runMerger{c: c, withProps: withProps}
	m.init(0)
	m.merge(src)
	if len(m.vids) == 0 {
		return Segment{}, false
	}
	seg := Segment{VIDs: m.vids, Sorted: true}
	if withProps {
		for p, k := range c.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				seg.PropI64 = append(seg.PropI64, m.pi64[p])
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindFloat64:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, m.pf64[p])
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindString:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, m.pstr[p])
			}
		}
	}
	return seg, true
}

// mergedBatch is the owned-buffer batch path for a sealed family with a
// live delta: one merged run per source, packed back to back, Sorted
// preserved so intersection joins keep galloping. Returns false on mixed
// source labels — the reference path handles those.
func (c *csr) mergedBatch(g *Graph, srcs []vector.VID, label catalog.LabelID, withProps bool, out *Batch) bool {
	nv := vector.VID(len(g.labelOf))
	for _, s := range srcs {
		if s < nv && g.labelOf[s] != label {
			return false
		}
	}
	out.reset(len(srcs))
	m := runMerger{c: c, withProps: withProps}
	m.init(0)
	for i, s := range srcs {
		start := int32(len(m.vids))
		if s < nv {
			m.merge(s)
		}
		out.Runs[i] = NeighborRun{Start: start, End: int32(len(m.vids))}
	}
	out.VIDs = m.vids
	if withProps {
		out.PropI64, out.PropF64, out.PropStr = m.pi64, m.pf64, m.pstr
	}
	out.Sorted = true
	return true
}
