package storage

// The packed batch: every batched neighbor read that is not one shared CSR
// array — AnyLabel fan-out, Both, mixed source labels, a transaction
// snapshot with overlay edges on some sources — is built here by copying
// sub-slices of the sealed images back to back, in exactly the order the
// scalar Neighbors call emits its segments. The family list is resolved once
// per distinct source label per call; a source costs one labelOf load and
// two offsets loads per family, no map probe and no Segment.

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// OverlayRun is one segment a layered view (a transaction snapshot) splices
// into a packed batch: Seg's rows follow request row Row's base runs of
// direction Dir, which is where the view's scalar Neighbors puts them.
type OverlayRun struct {
	Row int32
	Dir catalog.Direction
	Seg Segment
}

// labelImages is one source label's entry in a call's family table:
// imgs[lo:mid] are the sealed images of the request's (first) direction in
// scalar segment order, imgs[mid:hi] those of the In side of a Both request.
type labelImages struct {
	label       catalog.LabelID
	lo, mid, hi int
}

// appendImages appends the sealed images Neighbors(label, et, dir, dstLabel)
// would visit, in its order. ok is false when one of them cannot serve a
// packed read: the family is still in the bulk phase, or its image has a live
// delta.
func (ft *famTable) appendImages(imgs []*csr, label catalog.LabelID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) (_ []*csr, ok bool) {
	add := func(l *AdjList) bool {
		c := l.snap.Load()
		if c == nil || !c.delta.isEmpty() {
			return false
		}
		imgs = append(imgs, c)
		return true
	}
	if dstLabel != AnyLabel {
		l, found := ft.adj[AdjKey{Src: label, Et: et, Dst: dstLabel, Dir: dir}]
		return imgs, !found || add(l)
	}
	for _, fe := range ft.famIdx[famKey{src: label, et: et, dir: dir}] {
		if !add(fe.list) {
			return imgs, false
		}
	}
	return imgs, true
}

// PackNeighborsBatch fills out with owned runs packed from the sealed CSR
// images plus over, the segments a layered view adds: run i is the
// concatenation, per direction (Out then In for Both), of srcs[i]'s base
// runs in family order followed by over's entries for (i, direction). over
// must be ascending by Row, Out before In within a row; sources at or beyond
// NumVertices() have no base run. The result is byte-identical to
// AppendNeighborsBatch over the same view. Sorted holds when no run joins
// two segments or contains an overlay segment.
//
// It returns false, leaving out unspecified, when a family the request needs
// is still in the bulk phase or has a live delta; the caller then takes the
// reference path.
func (g *Graph) PackNeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, over []OverlayRun, out *Batch) bool {
	dirs := [2]catalog.Direction{dir, dir}
	nDirs := 1
	if dir == catalog.Both {
		dirs, nDirs = [2]catalog.Direction{catalog.Out, catalog.In}, 2
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
	resolve := func(label catalog.LabelID) bool {
		for cur = 0; cur < len(labels); cur++ {
			if labels[cur].label == label {
				return true
			}
		}
		e := labelImages{label: label, lo: len(imgs)}
		ok := true
		if imgs, ok = ft.appendImages(imgs, label, et, dirs[0], dstLabel); !ok {
			return false
		}
		e.mid = len(imgs)
		if nDirs == 2 {
			if imgs, ok = ft.appendImages(imgs, label, et, dirs[1], dstLabel); !ok {
				return false
			}
		}
		e.hi = len(imgs)
		labels = append(labels, e)
		return true
	}

	// Pass 1: run boundaries, so the copy pass writes into exactly sized
	// buffers.
	out.reset(len(srcs))
	nv := vector.VID(len(g.labelOf))
	sorted := true
	total, oc := 0, 0
	for i, s := range srcs {
		start, segs := total, 0
		if s < nv {
			if l := g.labelOf[s]; (cur == len(labels) || labels[cur].label != l) && !resolve(l) {
				return false
			}
			for _, c := range imgs[labels[cur].lo:labels[cur].hi] {
				if n := len(c.run(s)); n > 0 {
					total += n
					segs++
				}
			}
		}
		for ; oc < len(over) && int(over[oc].Row) == i; oc++ {
			total += len(over[oc].Seg.VIDs)
			segs += 2 // an overlay segment is never sorted
		}
		if segs > 1 {
			sorted = false
		}
		out.Runs[i] = NeighborRun{Start: int32(start), End: int32(total)}
	}
	out.Sorted = sorted

	// Pass 2: copy.
	p := packer{out: out}
	if withProps {
		p.kinds = g.cat.EdgeTypeProps(et)
	}
	p.alloc(total)
	oc = 0
	for i, s := range srcs {
		var e labelImages
		if s < nv {
			if l := g.labelOf[s]; labels[cur].label != l {
				resolve(l)
			}
			e = labels[cur]
		}
		lo, hi := e.lo, e.mid
		for d := 0; d < nDirs; d++ {
			for _, c := range imgs[lo:hi] {
				if int(s) < len(c.offsets)-1 {
					p.copy(c.neighbors, c.propI64, c.propF64, c.propStr, int(c.offsets[s]), int(c.offsets[s+1]))
				}
			}
			for ; oc < len(over) && int(over[oc].Row) == i && (nDirs == 1 || over[oc].Dir == dirs[d]); oc++ {
				seg := &over[oc].Seg
				p.copy(seg.VIDs, seg.PropI64, seg.PropF64, seg.PropStr, 0, len(seg.VIDs))
			}
			lo, hi = e.mid, e.hi
		}
	}
	return true
}

// packer writes runs back to back into a Batch's owned buffers.
type packer struct {
	out   *Batch
	kinds []catalog.PropDef // nil unless edge properties were requested
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
	for i, d := range p.kinds {
		switch d.Kind {
		case vector.KindInt64, vector.KindDate:
			out.PropI64[i] = make([]int64, total)
		case vector.KindFloat64:
			out.PropF64[i] = make([]float64, total)
		case vector.KindString:
			out.PropStr[i] = make([]string, total)
		}
	}
}

// copy appends rows [lo,hi) of one run — a CSR image's arrays or an overlay
// segment's — with the aligned property rows.
func (p *packer) copy(vids []vector.VID, pi64 [][]int64, pf64 [][]float64, pstr [][]string, lo, hi int) {
	out := p.out
	copy(out.VIDs[p.at:], vids[lo:hi])
	for i, d := range p.kinds {
		switch d.Kind {
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
