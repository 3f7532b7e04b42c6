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
// carries a delta overlay (delta.go): once SealCSR has run, committed edges
// land in the delta instead of invalidating the image, readers merge the two
// sides (at their version) without losing the sorted-run contract, and a
// background reseal (reseal.go) swaps in the merge of the two as a fresh
// image — one atomic store, concurrent readers keep whichever image they
// already loaded. Only the bulk phase has families without an image (one
// first created by a commit is born with an empty one), and no read reaches
// them: the graph seals at its first read.

import (
	"slices"

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
	// per-run sort; one struct, so a batch piece viewing the image points at
	// them without allocating.
	propKinds []vector.Kind
	props     EdgeCols

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
		c.props = newEdgeCols(len(a.propKinds))
		for p, k := range a.propKinds {
			switch k {
			case vector.KindInt64, vector.KindDate:
				c.props.I64[p] = permuted(l.props.I64[p], keys)
			case vector.KindFloat64:
				c.props.F64[p] = permuted(l.props.F64[p], keys)
			case vector.KindString:
				c.props.Str[p] = permuted(l.props.Str[p], keys)
			}
		}
	}
	c.delta = newAdjDelta(a.propKinds)
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

// runLen returns the length of src's run as a read at ver sees it: the
// image's run plus the delta entries visible at ver.
//
//geslint:kernel
func (c *csr) runLen(src vector.VID, ver uint64) int {
	lo, hi := c.span(src)
	return hi - lo + c.delta.runs.Load(src).visible(ver)
}

// segmentAt builds the Segment of src's run as a read at ver sees it: a view
// of the image where no delta entry visible at ver joins the run, an owned
// merge where one does.
func (c *csr) segmentAt(src vector.VID, withProps bool, ver uint64) (Segment, bool) {
	lo, hi := c.span(src)
	rows := edgeRows{vids: c.neighbors, cols: c.props}
	r := c.delta.runs.Load(src)
	if k := r.visible(ver); k > 0 {
		var owned edgeRows
		p := packer{out: &owned}
		if withProps {
			p.kinds = c.propKinds
		}
		n := hi - lo + k
		p.reserve(n)
		p.merge(c, lo, hi, r, ver)
		rows, lo, hi = owned, 0, n
	}
	if lo == hi {
		return Segment{}, false
	}
	seg := Segment{VIDs: rows.vids[lo:hi:hi]}
	if withProps {
		cols := rows.cols.rows(c.propKinds, lo, hi)
		seg.PropI64, seg.PropF64, seg.PropStr = cols.I64, cols.F64, cols.Str
	}
	return seg, true
}

// memBytes approximates the snapshot's resident size.
func (c *csr) memBytes() int {
	return len(c.offsets)*4 + len(c.neighbors)*4 + c.props.bytes(c.propKinds)
}

// resealed folds into a fresh image the delta entries a read at horizon h
// sees — the commits at or below h — with the merge readers already run, over
// every source, into exactly sized arrays; the entries stamped after h are
// carried into the fresh image's delta.
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
		total += c.runLen(vector.VID(v), h)
	}
	var rows edgeRows
	p := packer{out: &rows, kinds: c.propKinds}
	p.reserve(total)
	nc := &csr{offsets: make([]uint32, n+1), propKinds: c.propKinds}
	for v := 0; v < n; v++ {
		nc.offsets[v] = uint32(p.at)
		src := vector.VID(v)
		lo, hi := c.span(src)
		p.merge(c, lo, hi, d.runs.Load(src), h)
	}
	nc.offsets[n] = uint32(p.at)
	nc.neighbors, nc.props = rows.vids, rows.cols
	nc.delta = newAdjDelta(c.propKinds)
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
// graph's first read calls it when the bulk load did not; calling it again
// folds every family's delta, up to the fold horizon, into a fresh image (a
// quiesced reseal); each family swaps in atomically. The first call also ends
// the bulk phase: from then on the graph changes only by commits, whose edges
// land in per-image deltas, and families they create are born sealed. Returns
// the number of families.
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

// sealBulk ends the bulk phase at the graph's first read or commit. The check
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
