package storage

// CSR adjacency snapshots: an immutable, read-optimized image of one
// adjacency family, sealed out of the AdjList's edge log when the bulk phase
// ends and, with its delta, the family's only readable store. The layout
// is the classic compressed sparse row form — offsets[v] .. offsets[v+1]
// delimit v's neighbor run inside one dense array — with two additions the
// executor exploits:
//
//   - neighbor runs are sorted by destination VID, so cyclic pattern edges
//     close by merge/galloping intersection instead of hash probes, and
//   - edge-property columns are permuted alongside the neighbors, so the
//     aligned-run contract of Segment holds unchanged.
//
// The snapshot hangs off the AdjList behind an atomic pointer. Each image
// carries a delta overlay (delta.go): once SealCSR has run, edge mutations —
// committed transactions included — land in the delta instead of invalidating
// the image, readers merge the two sides (at their version) without losing the
// sorted-run contract, and a background reseal (reseal.go) swaps in the merge
// of the two as a fresh image — one atomic store, concurrent readers keep
// whichever image they already loaded. Only the bulk phase has families
// without an image (one first created by a post-seal mutation is born with an
// empty one), and no read reaches them: the graph seals at its first read.

import (
	"slices"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// csr is the sealed image of one adjacency family.
type csr struct {
	// offsets has one entry per source up to the highest plus one: vertex
	// v's neighbors occupy
	// neighbors[offsets[v]:offsets[v+1]], sorted ascending by VID.
	offsets   []uint32
	neighbors []vector.VID

	// Edge-property columns aligned with neighbors, permuted by the same
	// per-run sort. Indexed by schema position: one entry per property, only
	// the slice matching propKinds[p] populated.
	propKinds []vector.Kind
	propI64   [][]int64
	propF64   [][]float64
	propStr   [][]string

	// delta is the image's mutable overlay (delta.go), allocated empty at
	// seal time. Pairing it with the image — rather than the AdjList —
	// means one snap.Load() hands a reader both sides consistently.
	delta *adjDelta
}

// sealCSR builds the sorted CSR image of the family's edge log: a stable
// counting sort on the source groups each source's entries in arrival order,
// and a per-run sort of (destination, arrival index) keys — the stable sort on
// the destination — orders each run, so entries sharing a destination keep
// their insertion order, the order the delta overlay's sealed-first tie break
// continues. A family without a log seals empty. Caller holds wmu.
func (a *AdjList) sealCSR() *csr {
	l := a.log
	if l == nil {
		l = newEdgeLog(len(a.propKinds))
	}
	n := 0 // one past the highest source
	for _, s := range l.src {
		n = max(n, int(s)+1)
	}
	c := &csr{offsets: make([]uint32, n+1), propKinds: a.propKinds}
	for _, s := range l.src {
		c.offsets[s+1]++
	}
	for v := 0; v < n; v++ {
		c.offsets[v+1] += c.offsets[v]
	}
	next := slices.Clone(c.offsets[:n])
	keys := make([]uint64, len(l.src))
	for i, s := range l.src {
		keys[next[s]] = uint64(l.dst[i])<<32 | uint64(i)
		next[s]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(keys[c.offsets[v]:c.offsets[v+1]])
	}
	c.neighbors = make([]vector.VID, len(keys))
	for k, key := range keys {
		c.neighbors[k] = vector.VID(key >> 32)
	}
	if len(a.propKinds) > 0 {
		c.propI64 = make([][]int64, len(a.propKinds))
		c.propF64 = make([][]float64, len(a.propKinds))
		c.propStr = make([][]string, len(a.propKinds))
		for p, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				c.propI64[p] = permuted(l.propI64[p], keys)
			case vector.KindFloat64:
				c.propF64[p] = permuted(l.propF64[p], keys)
			case vector.KindString:
				c.propStr[p] = permuted(l.propStr[p], keys)
			}
		}
	}
	c.delta = newAdjDelta(len(keys), a.propKinds)
	return c
}

// permuted returns col's entries in image order: entry k is col at the
// arrival index in keys[k]'s low word.
func permuted[E any](col []E, keys []uint64) []E {
	out := make([]E, len(keys))
	for k, key := range keys {
		out[k] = col[uint32(key)]
	}
	return out
}

// span returns the bounds of src's run in neighbors ([0,0) past the image's
// sources).
//
//geslint:kernel
func (c *csr) span(src vector.VID) (lo, hi int) {
	if int(src) >= len(c.offsets)-1 {
		return 0, 0
	}
	return int(c.offsets[src]), int(c.offsets[src+1])
}

// runLen returns the length of src's run as a read at ver sees it, and
// whether the delta changes the image's run there — a tombstone in its range
// or an entry visible at ver — so that it must be merged, not shared.
//
//geslint:kernel
func (c *csr) runLen(src vector.VID, ver uint64) (n int, merged bool) {
	lo, hi := c.span(src)
	return c.count(lo, hi, c.delta.runs.Load(src), ver)
}

// count is runLen for one source's image run [lo,hi) and delta run r.
//
//geslint:kernel
func (c *csr) count(lo, hi int, r *deltaRun, ver uint64) (n int, merged bool) {
	n = hi - lo
	if t := c.delta.tombsIn(lo, hi); t > 0 {
		n -= t
		merged = true
	}
	if k := r.visible(ver); k > 0 {
		n += k
		merged = true
	}
	return n, merged
}

// segment builds the Segment view of src's image run.
func (c *csr) segment(src vector.VID, withProps bool) (Segment, bool) {
	lo, hi := c.span(src)
	if lo == hi {
		return Segment{}, false
	}
	seg := Segment{VIDs: c.neighbors[lo:hi:hi]}
	if withProps {
		for p, k := range c.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				seg.PropI64 = append(seg.PropI64, c.propI64[p][lo:hi:hi])
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindFloat64:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, c.propF64[p][lo:hi:hi])
				seg.PropStr = append(seg.PropStr, nil)
			case vector.KindString:
				seg.PropI64 = append(seg.PropI64, nil)
				seg.PropF64 = append(seg.PropF64, nil)
				seg.PropStr = append(seg.PropStr, c.propStr[p][lo:hi:hi])
			}
		}
	}
	return seg, true
}

// segmentAt builds the Segment of src's run as a read at ver sees it: a view
// of the image where the delta leaves the run alone, an owned merge where it
// does not.
func (c *csr) segmentAt(src vector.VID, withProps bool, ver uint64) (Segment, bool) {
	lo, hi := c.span(src)
	for {
		r := c.delta.runs.Load(src)
		n, merged := c.count(lo, hi, r, ver)
		if !merged {
			return c.segment(src, withProps)
		}
		if n == 0 {
			return Segment{}, false
		}
		var b Batch
		p := packer{out: &b}
		if withProps {
			p.kinds = c.propKinds
		}
		p.alloc(n)
		if p.merge(c, lo, hi, r, ver, n) { // else an unversioned write raced the count: read again
			return Segment{VIDs: b.VIDs, PropI64: b.PropI64, PropF64: b.PropF64, PropStr: b.PropStr}, true
		}
	}
}

// liveEntries is the merged view's entry count: the image's entries less
// tombstones plus delta inserts.
func (c *csr) liveEntries() int {
	return len(c.neighbors) - int(c.delta.nTombs.Load()) + int(c.delta.nIns.Load())
}

// memBytes approximates the snapshot's resident size.
func (c *csr) memBytes() int {
	return len(c.offsets)*4 + len(c.neighbors)*4 + propBytes(c.propKinds, c.propI64, c.propF64, c.propStr)
}

// resealed folds into a fresh image the delta entries a read at horizon h
// sees — tombstones, unversioned inserts and commits at or below h — with the
// merge readers already run, over every source, into exactly sized arrays;
// the entries stamped after h are carried into the fresh image's delta.
// Image entries precede delta entries of the same destination, so duplicates
// stay in insertion order across any number of reseals — the image is what
// sealing a graph rebuilt from the edge list visible at h would give. Caller
// holds wmu, which freezes the delta.
func (c *csr) resealed(h uint64) *csr {
	d := c.delta
	n := len(c.offsets) - 1
	d.runs.Range(func(src vector.VID, _ *deltaRun) { n = max(n, int(src)+1) })
	total := 0
	for v := 0; v < n; v++ {
		k, _ := c.runLen(vector.VID(v), h)
		total += k
	}
	var b Batch
	p := packer{out: &b, kinds: c.propKinds}
	p.alloc(total)
	nc := &csr{offsets: make([]uint32, n+1), propKinds: c.propKinds}
	for v := 0; v < n; v++ {
		nc.offsets[v] = uint32(p.at)
		k, merged := c.runLen(vector.VID(v), h)
		p.emit(c, vector.VID(v), h, k, merged, total) // cannot fail: wmu freezes the delta
	}
	nc.offsets[n] = uint32(p.at)
	nc.neighbors, nc.propI64, nc.propF64, nc.propStr = b.VIDs, b.PropI64, b.PropF64, b.PropStr
	nc.delta = newAdjDelta(len(nc.neighbors), c.propKinds)
	d.runs.Range(func(src vector.VID, r *deltaRun) {
		if nr := r.newerThan(h, c.propKinds); nr != nil {
			nc.delta.carry(src, nr)
		}
	})
	return nc
}

// seal publishes the family's next image (with a fresh delta) atomically and
// reports whether it did. The first call ends the family's bulk phase: the
// image is sorted out of the edge log, which is then dropped. Every
// later call is a reseal at fold horizon h, and a delta holding nothing at or
// below h is left as it is. Concurrent readers keep serving from whichever
// image they already resolved.
//
//geslint:seal publishes the freshly built CSR image
func (a *AdjList) seal(h uint64) bool {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		if !c.delta.canFold(h) {
			return false
		}
		a.snap.Store(c.resealed(h))
		return true
	}
	a.snap.Store(a.sealCSR())
	a.log = nil
	return true
}

// SealCSR seals every adjacency family into a sorted CSR snapshot. The
// graph's first read or delete calls it when the bulk load did not; calling it
// again folds every family's delta, up to the fold horizon, into a fresh image
// (a quiesced reseal); each family swaps in atomically. The first call also
// opens the overlay phase: subsequent edge mutations land in per-image deltas,
// and families they create are born sealed. Returns the number of families.
func (g *Graph) SealCSR() int {
	if !g.sealedPhase.Load() {
		// Bulk-load finish: vertex inserts are over (they are single-writer
		// and pre-seal by contract), so their arrays shed their slack too.
		g.trimVertexArrays()
	}
	h := g.foldHorizon()
	n := 0
	for _, l := range g.fams.Load().adj {
		l.seal(h)
		n++
	}
	g.sealedPhase.Store(true)
	// The statistics snapshot is derived from the same sealed image, in
	// the same single-writer pass, and swaps in under the same discipline.
	g.sealStats()
	return n
}

// CSRSealed reports whether the graph has left the bulk phase: every
// adjacency family serves from a CSR snapshot.
func (g *Graph) CSRSealed() bool { return g.sealedPhase.Load() }

// sealBulk ends the bulk phase at the graph's first read or delete. The check
// is one atomic load; concurrent first readers seal exactly once, and each
// returns only after the seal has published every image.
func (g *Graph) sealBulk() {
	if !g.sealedPhase.Load() {
		g.bulkSeal.Do(func() {
			if !g.sealedPhase.Load() {
				g.SealCSR()
			}
		})
	}
}

// NeighborRun delimits one source's rows inside a Batch: Batch.VIDs[Start:End]
// (and the aligned Prop* rows) are that source's neighbors.
type NeighborRun struct {
	Start, End int32
}

// Len returns the run's neighbor count.
func (r NeighborRun) Len() int { return int(r.End - r.Start) }

// Batch is the result of one batched neighbor expansion: Runs is aligned
// with the request's source slice (empty run for NilVID or isolated
// sources), and every run's rows live in VIDs with edge properties aligned
// element-for-element.
//
// Two storage modes exist. When Shared is set, VIDs and the Prop* columns
// reference storage-owned CSR arrays directly (zero copy — never mutate)
// and Runs index into them; otherwise they are buffers owned by the Batch,
// packed back to back in run order. Either way a consumer may retain
// sub-slices (lazy columns do): owned buffers are replaced, not recycled,
// by the next fill.
type Batch struct {
	VIDs []vector.VID
	Runs []NeighborRun

	// Shared marks VIDs/Prop* as views of storage-owned memory.
	Shared bool
	// Sorted guarantees every run is ascending by VID — the precondition
	// for intersection-based joins. It holds for every single-family read,
	// committed delta entries included, and is cleared only when a run joins
	// the runs of two families (AnyLabel, Both).
	Sorted bool

	// Edge-property columns aligned with VIDs (populated when requested),
	// indexed by schema position like Segment.Prop*.
	PropI64 [][]int64
	PropF64 [][]float64
	PropStr [][]string
}

// Run returns the neighbors of request row i.
//
//geslint:kernel
func (b *Batch) Run(i int) []vector.VID {
	r := b.Runs[i]
	return b.VIDs[r.Start:r.End]
}

// reset prepares the batch for refilling with n runs. Owned buffers are
// dropped rather than reused: consumers may retain sub-slices of the
// previous fill.
func (b *Batch) reset(n int) {
	b.VIDs = nil
	b.PropI64, b.PropF64, b.PropStr = nil, nil, nil
	b.Shared, b.Sorted = false, false
	if cap(b.Runs) < n {
		//geslint:alloc-ok Runs buffer reallocated only on growth; steady-state batches reuse capacity
		b.Runs = make([]NeighborRun, n)
	} else {
		b.Runs = b.Runs[:n]
	}
}

// NeighborsBatch implements View: one call resolves the neighbors of every
// source, filling out's runs aligned with srcs. NilVID sources produce empty
// runs, so callers can pass invalid parent rows without re-aligning.
//
// Every sealed request is served from the CSR images, each merged with its
// delta. One direction, a concrete dstLabel and one source label map to a
// single family: when the delta changes none of the request's runs, they are
// pure prefix-sum lookups into its shared arrays — no per-source map lookup,
// no copying — and Sorted is guaranteed. Any other request (a run the delta
// changes, AnyLabel fan-out, Both, mixed source labels) packs owned runs out
// of the images, merging the changed ones in place, in the scalar Neighbors
// segment order (pack.go). A graph still in the bulk phase is sealed first.
func (g *Graph) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) {
	g.sealBulk()
	g.neighborsBatch(srcs, et, dir, dstLabel, withProps, Latest, out)
}

// neighborsBatch is NeighborsBatch as a read at version ver sees it.
func (g *Graph) neighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, ver uint64, out *Batch) {
	if dir != catalog.Both && dstLabel != AnyLabel && g.csrBatch(srcs, et, dir, dstLabel, withProps, ver, out) {
		return
	}
	if !g.packNeighborsBatch(srcs, et, dir, dstLabel, withProps, ver, out) {
		// The copy pass met an unversioned write: read per source.
		var v View = g
		if ver != Latest {
			v = g.At(ver)
		}
		AppendNeighborsBatch(v, srcs, et, dir, dstLabel, withProps, out)
	}
}

// csrBatch attempts the zero-copy CSR fast path and reports whether it served
// the request: its sources meet one family, and the delta changes none
// of their runs at ver. A source with no run in any family — NilVID, a VID the
// graph holds no vertex for, a label without the requested family, a created
// vertex past the image's offsets before the reseal that gives it one — gets
// an empty run and does not count towards uniformity.
//
//geslint:kernel
func (g *Graph) csrBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, ver uint64, out *Batch) bool {
	adj := g.fams.Load().adj
	key := AdjKey{Et: et, Dst: dstLabel, Dir: dir}
	// label is the family's source label once a source meets it; famless is
	// the last label found to have no such family.
	label, famless := noLabel, noLabel
	var c *csr
	last, live := 0, false
	out.reset(len(srcs))
	for i, s := range srcs {
		out.Runs[i] = NeighborRun{}
		l := g.labelAt(s)
		if l == noLabel || l == famless {
			continue
		}
		if l != label {
			key.Src = l
			fam, has := adj[key]
			if !has {
				famless = l
				continue
			}
			if c != nil {
				return false // a second family: the pack path joins them
			}
			c = fam.snap.Load()
			label, last, live = l, len(c.offsets)-1, !c.delta.isEmpty()
		}
		if live {
			if _, merged := c.runLen(s, ver); merged {
				return false
			}
		}
		if int(s) < last {
			out.Runs[i] = NeighborRun{Start: int32(c.offsets[s]), End: int32(c.offsets[s+1])}
		}
	}
	out.Sorted = true
	if c != nil {
		out.VIDs = c.neighbors
		out.Shared = true
		if withProps {
			out.PropI64, out.PropF64, out.PropStr = c.propI64, c.propF64, c.propStr
		}
	}
	return true
}

// AppendNeighborsBatch is the reference implementation of the batched
// neighbor API: per-source scalar Neighbors calls appended back to back into
// out's owned buffers. It defines the batch/scalar equivalence contract —
// run i holds exactly the concatenation of Neighbors(srcs[i])'s segments, in
// segment order — and any View can use it to satisfy NeighborsBatch.
func AppendNeighborsBatch(v View, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) {
	out.reset(len(srcs))
	nProps := 0
	var kinds []catalog.PropDef
	if withProps {
		kinds = v.Catalog().EdgeTypeProps(et)
		nProps = len(kinds)
		out.PropI64 = make([][]int64, nProps)
		out.PropF64 = make([][]float64, nProps)
		out.PropStr = make([][]string, nProps)
	}
	sorted := true
	var segBuf []Segment
	total := int32(0)
	for i, s := range srcs {
		start := total
		if s != vector.NilVID {
			segBuf = v.Neighbors(segBuf[:0], s, et, dir, dstLabel, withProps)
			for _, seg := range segBuf {
				out.VIDs = append(out.VIDs, seg.VIDs...)
				for p := 0; p < nProps; p++ {
					switch kinds[p].Kind {
					case vector.KindInt64, vector.KindDate:
						out.PropI64[p] = append(out.PropI64[p], seg.PropI64[p]...)
					case vector.KindFloat64:
						out.PropF64[p] = append(out.PropF64[p], seg.PropF64[p]...)
					case vector.KindString:
						out.PropStr[p] = append(out.PropStr[p], seg.PropStr[p]...)
					}
				}
				total += int32(len(seg.VIDs))
			}
			// Every segment is sorted; a run joining two families is not.
			if len(segBuf) > 1 {
				sorted = false
			}
		}
		out.Runs[i] = NeighborRun{Start: start, End: total}
	}
	out.Sorted = sorted
}
