package storage

// CSR adjacency snapshots: an immutable, read-optimized image of one
// adjacency family, sealed out of the AdjList's builder slots at bulk-load
// finish and, with its delta, the family's only store from then on. The layout
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
// carries a delta overlay (delta.go): once SealCSR has run, edge mutations
// land in the delta instead of invalidating the image, readers merge the
// two sides without losing the sorted-run contract, and a background reseal
// (reseal.go) swaps in the merge of the two as a fresh image — one atomic
// store, concurrent readers keep whichever image they already loaded. Only
// the bulk phase has families without an image (one first created by a
// post-seal mutation is born with an empty one); readers then use the
// builder's live slot layout.

import (
	"sort"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// csr is the sealed image of one adjacency family.
type csr struct {
	// offsets has len(meta)+1 entries: vertex v's neighbors occupy
	// neighbors[offsets[v]:offsets[v+1]], sorted ascending by VID.
	offsets   []uint32
	neighbors []vector.VID

	// Edge-property columns aligned with neighbors, permuted by the same
	// per-run sort. Indexed like AdjList.prop*: one entry per schema
	// position, only the slice matching propKinds[p] populated.
	propKinds []vector.Kind
	propI64   [][]int64
	propF64   [][]float64
	propStr   [][]string

	// delta is the image's mutable overlay (delta.go), allocated empty at
	// seal time. Pairing it with the image — rather than the AdjList —
	// means one snap.Load() hands a reader both sides consistently.
	delta *adjDelta
}

// sealCSR builds the sorted CSR image of the builder's live entries. The
// per-run sort is stable so entries sharing a destination keep their slot
// order — insertion order, the order the delta overlay's sealed-first tie
// break continues. Caller holds wmu (or is the single bulk writer).
func (a *AdjList) sealCSR() *csr {
	total := 0
	for i := range a.meta {
		total += int(a.meta[i].len)
	}
	c := &csr{
		offsets:   make([]uint32, len(a.meta)+1),
		neighbors: make([]vector.VID, total),
		propKinds: a.propKinds,
	}
	hasProps := len(a.propKinds) > 0
	if hasProps {
		c.propI64 = make([][]int64, len(a.propKinds))
		c.propF64 = make([][]float64, len(a.propKinds))
		c.propStr = make([][]string, len(a.propKinds))
		for p, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				c.propI64[p] = make([]int64, total)
			case vector.KindFloat64:
				c.propF64[p] = make([]float64, total)
			case vector.KindString:
				c.propStr[p] = make([]string, total)
			}
		}
	}
	off := uint32(0)
	var perm []int
	for i := range a.meta {
		c.offsets[i] = off
		m := a.meta[i]
		if m.len == 0 {
			continue
		}
		src := a.arr[m.off : m.off+m.len]
		dst := c.neighbors[off : off+m.len]
		if !hasProps {
			copy(dst, src)
			sort.SliceStable(dst, func(x, y int) bool { return dst[x] < dst[y] })
		} else {
			// Sort a permutation so the property columns move with their
			// neighbors.
			perm = perm[:0]
			for j := 0; j < int(m.len); j++ {
				perm = append(perm, j)
			}
			sort.SliceStable(perm, func(x, y int) bool { return src[perm[x]] < src[perm[y]] })
			for j, pj := range perm {
				dst[j] = src[pj]
				at := int(off) + j
				from := int(m.off) + pj
				for p, k := range a.propKinds {
					switch k {
					case vector.KindInt64, vector.KindDate:
						c.propI64[p][at] = a.propI64[p][from]
					case vector.KindFloat64:
						c.propF64[p][at] = a.propF64[p][from]
					case vector.KindString:
						c.propStr[p][at] = a.propStr[p][from]
					}
				}
			}
		}
		off += m.len
	}
	c.offsets[len(a.meta)] = off
	c.delta = newAdjDelta(total, a.propKinds)
	return c
}

// run returns src's sorted neighbor run (nil when src has none).
func (c *csr) run(src vector.VID) []vector.VID {
	if int(src) >= len(c.offsets)-1 {
		return nil
	}
	lo, hi := c.offsets[src], c.offsets[src+1]
	return c.neighbors[lo:hi:hi]
}

// segment builds the Segment view of src's run, Sorted by construction.
func (c *csr) segment(src vector.VID, withProps bool) (Segment, bool) {
	if int(src) >= len(c.offsets)-1 {
		return Segment{}, false
	}
	lo, hi := c.offsets[src], c.offsets[src+1]
	if lo == hi {
		return Segment{}, false
	}
	seg := Segment{VIDs: c.neighbors[lo:hi:hi], Sorted: true}
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

// liveEntries is the merged view's entry count: the image's entries less
// tombstones plus delta inserts.
func (c *csr) liveEntries() int {
	return len(c.neighbors) - int(c.delta.nTombs.Load()) + int(c.delta.nIns.Load())
}

// memBytes approximates the snapshot's resident size.
func (c *csr) memBytes() int {
	n := len(c.offsets)*4 + len(c.neighbors)*4
	for p, k := range c.propKinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			n += len(c.propI64[p]) * 8
		case vector.KindFloat64:
			n += len(c.propF64[p]) * 8
		case vector.KindString:
			n += len(c.propStr[p]) * 16
			for _, s := range c.propStr[p] {
				n += len(s)
			}
		}
	}
	return n
}

// resealed folds the image's delta into a fresh image with an empty delta:
// the per-source two-cursor merge readers already run, over every source,
// into exactly sized arrays. Sealed entries precede delta inserts of the same
// destination, so duplicates stay in insertion order across any number of
// reseals — the image is what sealing a graph rebuilt from the surviving edge
// list would give. Caller holds wmu, which freezes the delta.
func (c *csr) resealed() *csr {
	d := c.delta
	n := len(c.offsets) - 1
	for src := range d.ins { // bare read is safe: wmu serializes all map writers
		if int(src) >= n {
			n = int(src) + 1
		}
	}
	m := runMerger{c: c, withProps: len(c.propKinds) > 0}
	m.init(c.liveEntries())
	nc := &csr{offsets: make([]uint32, n+1), propKinds: c.propKinds}
	for v := 0; v < n; v++ {
		nc.offsets[v] = uint32(len(m.vids))
		m.merge(vector.VID(v))
	}
	nc.offsets[n] = uint32(len(m.vids))
	nc.neighbors, nc.propI64, nc.propF64, nc.propStr = m.vids, m.pi64, m.pf64, m.pstr
	nc.delta = newAdjDelta(len(nc.neighbors), c.propKinds)
	return nc
}

// Seal publishes the family's next image (with a fresh empty delta)
// atomically. The first call ends the family's bulk phase: the image is
// sorted out of the builder slots, which are then released. Every later call
// is a reseal: the published image merged with its delta. Concurrent readers
// keep serving from whichever image they already resolved.
//
//geslint:seal publishes the freshly built CSR image
func (a *AdjList) Seal() {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if c := a.snap.Load(); c != nil {
		a.snap.Store(c.resealed())
		return
	}
	a.snap.Store(a.sealCSR())
	a.meta, a.arr = nil, nil
	a.propI64, a.propF64, a.propStr = nil, nil, nil
}

// Sealed reports whether the family has left the bulk phase: a CSR snapshot
// is published and the builder slots are gone.
func (a *AdjList) Sealed() bool { return a.snap.Load() != nil }

// SealCSR seals every adjacency family into a sorted CSR snapshot. Call it
// at bulk-load finish; calling it again folds every family's delta into a
// fresh image (a quiesced reseal); each family swaps in atomically. The
// first call also opens the overlay phase: subsequent edge mutations land in
// per-image deltas instead of invalidating the images, and families they
// create are born sealed. Returns the number of families sealed.
func (g *Graph) SealCSR() int {
	if !g.sealedPhase.Load() {
		// Bulk-load finish: vertex inserts are over (they are single-writer
		// and pre-seal by contract), so their arrays shed their slack too.
		g.trimVertexArrays()
	}
	n := 0
	for _, l := range g.fams.Load().adj {
		l.Seal()
		n++
	}
	g.sealedPhase.Store(true)
	// The statistics snapshot is derived from the same sealed image, in
	// the same single-writer pass, and swaps in under the same discipline.
	g.sealStats()
	return n
}

// CSRSealed reports whether every adjacency family currently serves from a
// CSR snapshot (true for an edgeless graph).
func (g *Graph) CSRSealed() bool {
	for _, l := range g.fams.Load().adj {
		if !l.Sealed() {
			return false
		}
	}
	return true
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
	// for intersection-based joins. Cleared whenever a run merges multiple
	// families or includes transaction-overlay entries.
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
// Every sealed request is served from the CSR images. One direction, a
// concrete dstLabel and one source label map to a single family: runs are
// pure prefix-sum lookups into its shared arrays — no per-source map lookup,
// no copying — and Sorted is guaranteed; with a non-empty delta that family
// takes the owned merged-batch path (delta.go), Sorted still. Any other
// shape (AnyLabel fan-out, Both, mixed source labels) packs owned runs out of
// the images in the scalar Neighbors segment order (PackNeighborsBatch).
// Only a bulk-phase request, or one that meets a live delta outside the
// single-family case, takes the per-source reference path.
func (g *Graph) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) {
	if dir != catalog.Both && dstLabel != AnyLabel {
		switch st, c, label := g.csrBatch(srcs, et, dir, dstLabel, withProps, out); st {
		case csrServed:
			return
		case csrDelta:
			if c.mergedBatch(g, srcs, label, withProps, out) {
				return
			}
		}
	}
	if !g.PackNeighborsBatch(srcs, et, dir, dstLabel, withProps, nil, out) {
		AppendNeighborsBatch(g, srcs, et, dir, dstLabel, withProps, out)
	}
}

// csrBatch outcomes: the request was served from the shared CSR arrays, the
// sealed image has a live delta the caller must merge, or no single sealed
// family matched and the reference path must answer.
const (
	csrServed = iota
	csrDelta
	csrFallback
)

// csrBatch attempts the zero-copy CSR fast path. Sources outside the base
// VID range (NilVID, or a vertex only a layered view knows) have no label and
// no base run: they get empty runs and do not count towards uniformity.
//
//geslint:kernel
func (g *Graph) csrBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) (int, *csr, catalog.LabelID) {
	// Resolve the single family off the first base source's label; bail to
	// the general path when source labels mix.
	nv := vector.VID(len(g.labelOf))
	var label catalog.LabelID
	first := -1
	for i, s := range srcs {
		if s < nv {
			label = g.labelOf[s]
			first = i
			break
		}
	}
	var c *csr
	if first >= 0 {
		l, ok := g.fams.Load().adj[AdjKey{Src: label, Et: et, Dst: dstLabel, Dir: dir}]
		if ok {
			if c = l.snap.Load(); c == nil {
				return csrFallback, nil, label
			}
			if !c.delta.isEmpty() {
				// Live overlay: the caller merges sealed and delta runs into
				// owned buffers (Sorted still holds).
				return csrDelta, c, label
			}
		}
	}
	// c == nil from here on means no base source or no family for the label:
	// every run is empty, trivially sorted (uniformity is still verified).
	out.reset(len(srcs))
	last := vector.VID(0)
	if c != nil {
		last = vector.VID(len(c.offsets) - 1)
	}
	for i, s := range srcs {
		if s >= nv {
			out.Runs[i] = NeighborRun{}
			continue
		}
		if g.labelOf[s] != label {
			return csrFallback, nil, label
		}
		if s >= last {
			out.Runs[i] = NeighborRun{}
			continue
		}
		out.Runs[i] = NeighborRun{Start: int32(c.offsets[s]), End: int32(c.offsets[s+1])}
	}
	out.Sorted = true
	if c != nil {
		out.VIDs = c.neighbors
		out.Shared = true
		if withProps {
			out.PropI64, out.PropF64, out.PropStr = c.propI64, c.propF64, c.propStr
		}
	}
	return csrServed, nil, label
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
			// A run stays sorted only as a single sorted segment; merged
			// families and overlay entries void the guarantee.
			if len(segBuf) > 1 || (len(segBuf) == 1 && !segBuf[0].Sorted) {
				sorted = false
			}
		}
		out.Runs[i] = NeighborRun{Start: start, End: total}
	}
	out.Sorted = sorted
}
