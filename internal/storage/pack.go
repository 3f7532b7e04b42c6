package storage

// The batched neighbor read (§5's pointer-based join), the store's one
// adjacency read: per source, one piece per non-empty family run in
// family-directory order (Out before In under Both). A run the delta leaves
// alone at the read's version is a piece viewing its sealed image — the
// paper's (pointer, length) — and only a run the delta changes is merged
// into rows the batch owns. The same packer writes a reseal's next image
// (csr.resealed).

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// NeighborRun delimits one source's pieces inside a Batch:
// Batch.Pieces[Start:End], in family-directory order.
type NeighborRun struct {
	Start, End int32
}

// Piece is one family's run for one source: rows [Lo,Hi) of the batch's
// backing Back — a sealed image, or the rows the batch merged — whose
// neighbours all carry destination label Label. Its VIDs ascend.
type Piece struct {
	Lo, Hi int32
	Back   uint16
	Label  catalog.LabelID
}

// Len returns the piece's neighbor count.
func (p Piece) Len() int { return int(p.Hi - p.Lo) }

// backing is one neighbour array pieces index, with its property columns.
type backing struct {
	vids []vector.VID
	cols *EdgeCols
}

// Batch is the result of one batched neighbor expansion: Runs is aligned
// with the request's source slice (an empty run for NilVID or isolated
// sources) and indexes Pieces. A piece viewing a sealed image aliases
// storage-owned memory (never mutate it); merged rows are owned by the
// batch and replaced, not recycled, by the next fill. A consumer copies the
// VIDs it keeps (Column.AppendVIDs) before the batch goes back to its pool.
type Batch struct {
	// VIDs is the one sealed image every view piece aliases when the request
	// met a single family, nil otherwise.
	VIDs   []vector.VID
	Runs   []NeighborRun
	Pieces []Piece
	// Sorted guarantees every run is ascending by VID — the precondition
	// for intersection-based joins. It holds iff no run has more than one
	// piece: a run joining the runs of two families (AnyLabel, Both) is not.
	Sorted bool

	backs  []backing    // backs[0] is merged, then the images met
	merged edgeRows     // the rows of the runs the delta changes
	concat []vector.VID // Run's scratch for a run of several pieces
}

// PieceVIDs returns piece p's neighbors.
//
//geslint:kernel
func (b *Batch) PieceVIDs(p Piece) []vector.VID {
	return b.backs[p.Back].vids[p.Lo:p.Hi:p.Hi]
}

// PieceCols returns the columns holding piece p's edge properties and the
// row of its first neighbor in them: property q of its k-th neighbor is
// cols.I64[q][off+k] (F64, Str by kind). Only a read that requested edge
// properties may use them.
func (b *Batch) PieceCols(p Piece) (cols *EdgeCols, off int) {
	return b.backs[p.Back].cols, int(p.Lo)
}

// RunLen returns the neighbor count of request row i.
//
//geslint:kernel
func (b *Batch) RunLen(i int) (n int) {
	for _, p := range b.Pieces[b.Runs[i].Start:b.Runs[i].End] {
		n += p.Len()
	}
	return n
}

// Run returns the neighbors of request row i: the piece itself when the run
// has one, their concatenation in batch scratch — valid until the next Run
// call — when it has several.
//
//geslint:kernel
func (b *Batch) Run(i int) []vector.VID {
	r := b.Runs[i]
	switch r.End - r.Start {
	case 0:
		return nil
	case 1:
		return b.PieceVIDs(b.Pieces[r.Start])
	}
	b.concat = b.concat[:0]
	for _, p := range b.Pieces[r.Start:r.End] {
		//geslint:alloc-ok Run's concatenation scratch; capacity stabilizes after the first multi-piece runs
		b.concat = append(b.concat, b.PieceVIDs(p)...)
	}
	return b.concat
}

// reset prepares the batch for refilling with n runs. Merged rows are
// dropped, not reused (a consumer may still hold a previous fill's VIDs
// while it refills the batch), and the backings cleared, so a batch pins no
// image it no longer reads.
func (b *Batch) reset(n int) {
	b.VIDs, b.Sorted, b.merged = nil, false, edgeRows{}
	b.Runs, b.Pieces = append(b.Runs[:0], make([]NeighborRun, n)...), b.Pieces[:0]
	clear(b.backs)
	b.backs = append(b.backs[:0], backing{cols: &b.merged.cols})
}

// NeighborsBatch implements View at the graph's read version: one call
// resolves the neighbors of every source, filling out's runs aligned with
// srcs (NilVID sources get empty runs) with pieces viewing the sealed images,
// merged into the batch's own rows only where the delta changes a run. A
// graph still in the bulk phase is sealed first.
func (g *Graph) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) {
	g.sealBulk()
	g.neighborsBatch(srcs, et, dir, dstLabel, withProps, g.readVersion(), out)
}

// batchFam is one family in a call's table: its image, the backing its view
// pieces index, its destination label, and whether its delta is non-empty.
type batchFam struct {
	c    *csr
	back uint16
	dst  catalog.LabelID
	live bool
}

// labelFams is one source label's entry in a call's table: fams[lo:hi], in
// family-directory order.
type labelFams struct {
	label  catalog.LabelID
	lo, hi int
}

// neighborsBatch is NeighborsBatch as a read at version ver sees it, in one
// pass: the family list is resolved once per distinct source label, and a
// source costs one label load and, per family, one offsets span plus at most
// one lock-free delta probe (none while the image's delta is empty).
func (g *Graph) neighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, ver uint64, out *Batch) {
	dirs := []catalog.Direction{dir}
	if dir == catalog.Both {
		dirs = []catalog.Direction{catalog.Out, catalog.In}
	}
	ft := g.fams.Load()
	out.reset(len(srcs))
	p := packer{out: &out.merged}
	var (
		labelBuf [4]labelFams
		famBuf   [8]batchFam
		labels   = labelBuf[:0]
		fams     = famBuf[:0]
	)
	// resolve points cur at label's table entry, resolving its families on
	// first sight; a stretch of sources with one label costs one compare.
	cur := 0
	add := func(l *AdjList, dst catalog.LabelID) {
		c := l.snap.Load()
		fams = append(fams, batchFam{c: c, back: uint16(len(out.backs)), dst: dst, live: !c.delta.isEmpty()})
		out.backs = append(out.backs, backing{vids: c.neighbors, cols: &c.props})
		if withProps {
			p.kinds = c.propKinds // one edge type, one schema
		}
	}
	resolve := func(label catalog.LabelID) {
		for cur = 0; cur < len(labels); cur++ {
			if labels[cur].label == label {
				return
			}
		}
		e := labelFams{label: label, lo: len(fams)}
		for _, d := range dirs {
			if dstLabel != AnyLabel {
				if l, found := ft.adj[AdjKey{Src: label, Et: et, Dst: dstLabel, Dir: d}]; found {
					add(l, dstLabel)
				}
				continue
			}
			for _, fe := range ft.famIdx[famKey{src: label, et: et, dir: d}] {
				add(fe.list, fe.dst)
			}
		}
		e.hi = len(fams)
		labels = append(labels, e)
	}

	sorted := true
	for i, s := range srcs {
		start := len(out.Pieces)
		if l := g.labelAt(s); l != noLabel {
			if cur == len(labels) || labels[cur].label != l {
				resolve(l)
			}
			for k := labels[cur].lo; k < labels[cur].hi; k++ {
				if f := &fams[k]; f.live {
					out.addPiece(&p, f, s, ver)
				} else if lo, hi := f.c.span(s); lo < hi {
					out.Pieces = append(out.Pieces, Piece{Lo: int32(lo), Hi: int32(hi), Back: f.back, Label: f.dst})
				}
			}
		}
		end := len(out.Pieces)
		sorted = sorted && end-start <= 1
		out.Runs[i] = NeighborRun{Start: int32(start), End: int32(end)}
	}
	out.Sorted = sorted
	out.backs[0].vids = out.merged.vids[:p.at]
	if len(fams) == 1 {
		out.VIDs = fams[0].c.neighbors
	}
}

// addPiece appends src's run of family f, whose delta is not empty, as a
// read at ver sees it: nothing for an empty run, a view of the image for one
// no visible delta entry joins, and otherwise the merge of the two, carved
// from the batch's merged rows.
func (b *Batch) addPiece(p *packer, f *batchFam, src vector.VID, ver uint64) {
	c := f.c
	lo, hi := c.span(src)
	r := c.delta.runs.Load(src)
	if k := r.visible(ver); k > 0 {
		at := p.at
		p.reserve(hi - lo + k)
		p.merge(c, lo, hi, r, ver)
		b.Pieces = append(b.Pieces, Piece{Lo: int32(at), Hi: int32(p.at), Back: 0, Label: f.dst})
	} else if lo < hi {
		b.Pieces = append(b.Pieces, Piece{Lo: int32(lo), Hi: int32(hi), Back: f.back, Label: f.dst})
	}
}

// edgeRows is an owned neighbour array with its aligned property columns.
type edgeRows struct {
	vids []vector.VID
	cols EdgeCols
}

// packer writes rows back to back into an edgeRows from row at on.
type packer struct {
	out   *edgeRows
	kinds []vector.Kind // nil unless edge properties were requested
	at    int
}

// reserve makes room for n more rows from at on.
func (p *packer) reserve(n int) {
	out, end := p.out, p.at+n
	out.vids = fit(out.vids, end)
	if p.kinds == nil {
		return
	}
	if out.cols.I64 == nil {
		out.cols = newEdgeCols(len(p.kinds))
	}
	for i, k := range p.kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			out.cols.I64[i] = fit(out.cols.I64[i], end)
		case vector.KindFloat64:
			out.cols.F64[i] = fit(out.cols.F64[i], end)
		case vector.KindString:
			out.cols.Str[i] = fit(out.cols.Str[i], end)
		}
	}
}

// fit returns s extended to at least n elements.
func fit[E any](s []E, n int) []E {
	if n <= len(s) {
		return s
	}
	return append(s, make([]E, n-len(s))...)
}

// rows appends rows [lo,hi) of one run's columns — an image's or a delta
// run's.
func (p *packer) rows(vids []vector.VID, cols *EdgeCols, lo, hi int) {
	out := p.out
	copy(out.vids[p.at:], vids[lo:hi])
	for i, k := range p.kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			copy(out.cols.I64[i][p.at:], cols.I64[i][lo:hi])
		case vector.KindFloat64:
			copy(out.cols.F64[i][p.at:], cols.F64[i][lo:hi])
		case vector.KindString:
			copy(out.cols.Str[i][p.at:], cols.Str[i][lo:hi])
		}
	}
	p.at += hi - lo
}

// merge appends the rows of one source, reserved: its image run [lo,hi)
// interleaved with the entries of its delta run r stamped at or before ver,
// ascending by VID, image first on ties. Every image entry was inserted before
// every delta entry, so duplicates of a destination stay in insertion order
// and a merged read is byte-identical to a read after a reseal.
func (p *packer) merge(c *csr, lo, hi int, r *deltaRun, ver uint64) {
	rn := 0
	if r != nil {
		rn = len(r.dsts)
	}
	i, j := lo, 0
	for {
		for j < rn && r.vers[j] > ver {
			j++
		}
		if i >= hi && j >= rn {
			return
		}
		// Copy stretches, not entries: the image entries up to the next
		// visible delta entry, then the visible delta entries below the image
		// entry that follows. The delta stretch may stop early (at a hidden
		// entry); the next round resumes there.
		k := hi
		if j < rn {
			k = i + upperBound(c.neighbors[i:hi], r.dsts[j])
		}
		e := j
		for e < rn && r.vers[e] <= ver && (k >= hi || r.dsts[e] < c.neighbors[k]) {
			e++
		}
		p.rows(c.neighbors, &c.props, i, k)
		if e > j {
			p.rows(r.dsts, &r.props, j, e)
		}
		i, j = k, e
	}
}

// upperBound returns how many leading entries of the ascending run s are at
// most x.
func upperBound(s []vector.VID, x vector.VID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
