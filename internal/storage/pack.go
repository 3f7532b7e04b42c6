package storage

// The packed batch: every batched neighbor read that is not one shared CSR
// array — AnyLabel fan-out, Both, mixed source labels, a source whose run the
// delta changes at the read's version — is built here by copying sub-slices of
// the sealed images back to back, in exactly the order the scalar Neighbors
// call emits its segments, and merging in place the runs the delta changes.
// The family list is resolved once per distinct source label per call; a
// source costs, per pass, one label load and two offsets loads plus one
// lock-free delta probe per family, no Go map probe and no Segment. The same packer writes a reseal's next
// image (csr.resealed) and a scalar merged segment (csr.segmentAt).

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// labelImages is one source label's entry in a call's family table:
// imgs[lo:hi] are the sealed images Neighbors visits for the label, in its
// segment order (the Out side before the In side of a Both request).
type labelImages struct {
	label  catalog.LabelID
	lo, hi int
}

// appendImages appends the sealed images Neighbors(label, et, dir, dstLabel)
// would visit, in its order.
func (ft *famTable) appendImages(imgs []*csr, label catalog.LabelID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) []*csr {
	if dstLabel != AnyLabel {
		if l, found := ft.adj[AdjKey{Src: label, Et: et, Dst: dstLabel, Dir: dir}]; found {
			imgs = append(imgs, l.snap.Load())
		}
		return imgs
	}
	for _, fe := range ft.famIdx[famKey{src: label, et: et, dir: dir}] {
		imgs = append(imgs, fe.list.snap.Load())
	}
	return imgs
}

// packNeighborsBatch fills out with owned runs packed from the sealed CSR
// images as a read at ver sees them: run i is the concatenation, per direction
// (Out then In for Both), of srcs[i]'s runs in family order, each the image's
// run merged with the delta entries visible at ver. The result is
// byte-identical to AppendNeighborsBatch over the same view; Sorted holds
// when no run joins two non-empty segments.
//
// It returns false, leaving out unspecified, when an unversioned mutation
// changed a merged run between the sizing and the copy pass; the caller then
// takes the reference path.
func (g *Graph) packNeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, ver uint64, out *Batch) bool {
	dirs := []catalog.Direction{dir}
	if dir == catalog.Both {
		dirs = []catalog.Direction{catalog.Out, catalog.In}
	}
	ft := g.fams.Load()
	var (
		labelBuf [4]labelImages
		imgBuf   [8]*csr
		labels   = labelBuf[:0]
		imgs     = imgBuf[:0]
	)
	// resolve points cur at label's table entry, resolving its families on
	// first sight. The loops below test labels[cur] first: a stretch of
	// sources with one label costs one compare each.
	cur := 0
	resolve := func(label catalog.LabelID) {
		for cur = 0; cur < len(labels); cur++ {
			if labels[cur].label == label {
				return
			}
		}
		e := labelImages{label: label, lo: len(imgs)}
		for _, d := range dirs {
			imgs = ft.appendImages(imgs, label, et, d, dstLabel)
		}
		e.hi = len(imgs)
		labels = append(labels, e)
	}

	// Pass 1: run boundaries, so the copy pass writes into exactly sized
	// buffers.
	out.reset(len(srcs))
	sorted := true
	total := 0
	for i, s := range srcs {
		start, segs := total, 0
		if l := g.labelAt(s); l != noLabel {
			if cur == len(labels) || labels[cur].label != l {
				resolve(l)
			}
			for _, c := range imgs[labels[cur].lo:labels[cur].hi] {
				if n, _ := c.runLen(s, ver); n > 0 {
					total += n
					segs++
				}
			}
		}
		if segs > 1 {
			sorted = false
		}
		out.Runs[i] = NeighborRun{Start: int32(start), End: int32(total)}
	}
	out.Sorted = sorted

	// Pass 2: copy, merging where the delta changes a run.
	p := packer{out: out}
	var kindBuf [8]vector.Kind
	if withProps {
		p.kinds = kindBuf[:0]
		for _, d := range g.cat.EdgeTypeProps(et) {
			p.kinds = append(p.kinds, d.Kind)
		}
	}
	p.alloc(total)
	for i, s := range srcs {
		l := g.labelAt(s)
		if l == noLabel {
			continue
		}
		if cur == len(labels) || labels[cur].label != l {
			resolve(l)
		}
		end := int(out.Runs[i].End)
		for _, c := range imgs[labels[cur].lo:labels[cur].hi] {
			n, merged := c.runLen(s, ver)
			if !p.emit(c, s, ver, n, merged, end) {
				return false
			}
		}
		if p.at != end {
			return false
		}
	}
	return true
}

// packer writes runs back to back into a Batch's owned buffers.
type packer struct {
	out   *Batch
	kinds []vector.Kind // nil unless edge properties were requested
	at    int
}

// alloc sizes the owned buffers for total rows.
func (p *packer) alloc(total int) {
	out := p.out
	if total > 0 {
		out.VIDs = make([]vector.VID, total)
	}
	if p.kinds == nil {
		return
	}
	out.PropI64 = make([][]int64, len(p.kinds))
	out.PropF64 = make([][]float64, len(p.kinds))
	out.PropStr = make([][]string, len(p.kinds))
	for i, k := range p.kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			out.PropI64[i] = make([]int64, total)
		case vector.KindFloat64:
			out.PropF64[i] = make([]float64, total)
		case vector.KindString:
			out.PropStr[i] = make([]string, total)
		}
	}
}

// emit appends src's run of image c as counted (runLen) for a read at ver —
// n rows, merged where the delta changes the run — provided it ends at or
// before row end. A run the delta left alone is the image's and cannot
// change; false means an unversioned mutation changed a merged run since it
// was counted, and the buffers are unusable.
func (p *packer) emit(c *csr, src vector.VID, ver uint64, n int, merged bool, end int) bool {
	lo, hi := c.span(src)
	if !merged {
		n = hi - lo
	}
	if p.at+n > end {
		return false
	}
	if !merged {
		p.copy(c, lo, hi)
		return true
	}
	return p.merge(c, lo, hi, c.delta.runs.Load(src), ver, n)
}

// copy appends image rows [lo,hi) with the aligned property rows.
func (p *packer) copy(c *csr, lo, hi int) {
	p.rows(c.neighbors, c.propI64, c.propF64, c.propStr, lo, hi)
}

// rows appends rows [lo,hi) of one run's columns — an image's or a delta
// run's.
func (p *packer) rows(vids []vector.VID, pi64 [][]int64, pf64 [][]float64, pstr [][]string, lo, hi int) {
	out := p.out
	copy(out.VIDs[p.at:], vids[lo:hi])
	for i, k := range p.kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			copy(out.PropI64[i][p.at:], pi64[i][lo:hi])
		case vector.KindFloat64:
			copy(out.PropF64[i][p.at:], pf64[i][lo:hi])
		case vector.KindString:
			copy(out.PropStr[i][p.at:], pstr[i][lo:hi])
		}
	}
	p.at += hi - lo
}

// merge appends n rows: one source's image run [lo,hi) (tombstones skipped)
// interleaved with the entries of its delta run r stamped at or before ver,
// ascending by VID, image first on ties. Every image entry was inserted before
// every delta entry, so duplicates of a destination stay in insertion order
// and a merged read is byte-identical to a read after a reseal. It reports
// false, having written no more than n rows, when the run does not hold
// exactly n — an unversioned mutation changed it since it was counted.
func (p *packer) merge(c *csr, lo, hi int, r *deltaRun, ver uint64, n int) bool {
	d := c.delta
	rn := 0
	if r != nil {
		rn = len(r.dsts)
	}
	end := p.at + n
	i, j := lo, 0
	for {
		for i < hi && d.tombstoned(i) {
			i++
		}
		for j < rn && r.vers[j] > ver {
			j++
		}
		if i >= hi && j >= rn {
			return p.at == end
		}
		// Copy stretches, not entries: the live image entries up to the next
		// visible delta entry, then the visible delta entries below the image
		// entry that follows. Either stretch may stop early (at a tombstone, a
		// hidden entry); the next round resumes there.
		k := hi
		if j < rn {
			k = i + upperBound(c.neighbors[i:hi], r.dsts[j])
		}
		k = d.nextTomb(i, k)
		e := j
		for e < rn && r.vers[e] <= ver && (k >= hi || r.dsts[e] < c.neighbors[k]) {
			e++
		}
		if k == i && e == j || p.at+k-i+e-j > end {
			// More rows than counted, or none at all: position i was
			// tombstoned after the skip above.
			return false
		}
		p.copy(c, i, k)
		if e > j {
			p.rows(r.dsts, r.propI64, r.propF64, r.propStr, j, e)
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
