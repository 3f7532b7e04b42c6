package op

import (
	"math"
	"slices"
	"sort"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/vector"
)

// Newest is the run cut and merge (plan.Fuse): an expand feeding only an
// OrderBy(limit K) by Key, descending, keeps the neighbours that sort can
// return — keys at least the K-th largest within the fused filter's bound,
// ties included, so the OrderBy breaks them as before. In a label the first
// seal laid out by Key (View.Clustered) a run's rows below a key are a
// prefix: binary searches cut the runs and a merge of their heads by VID
// reads only what is kept. Tail rows and other labels are loose: their keys
// are gathered (zero where undefined, as the projection above reads them).
type Newest struct {
	K   int // at least 1
	Key string
	// Bounded keeps only keys below Below (at most Below when Inclusive).
	Bounded, Inclusive bool
	Below              int64
}

// passes reports whether key is within the bound.
func (n *Newest) passes(key int64) bool {
	return !n.Bounded || key < n.Below || (n.Inclusive && key == n.Below)
}

// newestFactorized adds To's node of the kept neighbours of From's rows that
// take part in a tuple: no other row's neighbours reach the sort.
func (o *Expand) newestFactorized(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	parent, fromCol, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	buf := weightBufs.Get().(*[]int64)
	defer weightBufs.Put(buf)
	w := ft.Weights(parent, buf)
	srcs := fromCol.AppendVIDRange(ctx.Arena.GetVIDs(len(w)), 0, len(w))
	for i := range srcs {
		if w[i] == 0 {
			srcs[i] = vector.NilVID
		}
	}
	col, index := o.Newest.kept(ctx, srcs, o.To, o.Et, o.Dir, o.DstLabel)
	ctx.Arena.PutVIDs(srcs)
	ft.PruneUp(ft.AddChild(parent, ctx.NewFBlock(col), index))
	return ft, nil
}

// labelCut is one destination label's cut: clustered rows [lo,hi) with keys
// key, the kept ones [from,to); pid is its Key (hasKey: an int or a date).
type labelCut struct {
	label            catalog.LabelID
	lo, hi, from, to vector.VID
	key              []int64
	pid              catalog.PropID
	hasKey           bool
	heads            []head // the runs' heads of the K largest VIDs, ascending
}

// head is the next entry of one run in the merge: entry pos of piece.
type head struct {
	vid        vector.VID
	piece, pos int32
}

// kept returns, named to, the neighbours of srcs the cut keeps, and each
// source's range of them.
func (n *Newest) kept(ctx *Ctx, srcs []vector.VID, to string, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) (*vector.Column, []core.Range) {
	b := ctx.Arena.GetBatch()
	defer ctx.Arena.PutBatch(b)
	ctx.View.NeighborsBatch(srcs, et, dir, dst, false, b)
	labels := make([]labelCut, 0, 4)
	// The cut: piece p's clustered entries [0,nb), [0,ce) within the bound,
	// head its label's merge; loose[lo:] takes the rest. cuts: l, nb, ce, lo.
	cuts := ctx.Arena.GetInt32s(4 * len(b.Pieces))[:4*len(b.Pieces)]
	defer ctx.Arena.PutInt32s(cuts)
	loose := ctx.Arena.GetVIDs(0)
	defer func() { ctx.Arena.PutVIDs(loose) }()
	for p, pc := range b.Pieces {
		l := 0
		for l < len(labels) && labels[l].label != pc.Label {
			l++
		}
		if l == len(labels) {
			labels = append(labels, n.labelCut(ctx, pc.Label))
		}
		lc, vids := &labels[l], b.PieceVIDs(pc)
		nb := below(vids, lc.hi)
		ce := below(vids[:nb], lc.to)
		if ce > 0 {
			lc.push(head{vid: vids[ce-1], piece: int32(p), pos: int32(ce - 1)}, n.K)
		}
		cuts[4*p], cuts[4*p+1], cuts[4*p+2], cuts[4*p+3] = int32(l), int32(nb), int32(ce), int32(len(loose))
		loose = append(loose, vids[nb:]...)
	}
	var keys []int64 // the loose entries'
	if len(loose) > 0 {
		keyCol := ctx.Arena.OwnColumn(n.Key, vector.KindInt64)
		keyCol.Grow(len(loose))
		for i := range labels {
			if labels[i].hasKey {
				ctx.View.GatherProps(loose, labels[i].label, labels[i].pid, nil, keyCol)
			}
		}
		keys = keyCol.Int64s()
	}
	// The merge: the K largest keys, a label's runs in VID order and the
	// loose ones from ranked's end; fewer than K keep them all.
	ranked := n.topK(keys)
	kth := int64(math.MinInt64)
	for taken := 0; taken < n.K; taken++ {
		best, key := -1, int64(math.MinInt64)
		for i, lc := range labels {
			if h := len(lc.heads) - 1; h >= 0 && (best < 0 || lc.key[lc.heads[h].vid-lc.lo] > key) {
				best, key = i, lc.key[lc.heads[h].vid-lc.lo]
			}
		}
		if r := len(ranked) - 1; r >= 0 && (best < 0 || ranked[r] > key) {
			key, ranked = ranked[r], ranked[:r]
		} else if best < 0 {
			break
		} else {
			lc := &labels[best]
			h := lc.heads[len(lc.heads)-1]
			if lc.heads = lc.heads[:len(lc.heads)-1]; h.pos > 0 {
				h.pos--
				h.vid = b.PieceVIDs(b.Pieces[h.piece])[h.pos]
				lc.push(h, n.K)
			}
		}
		if taken == n.K-1 {
			kth = key
		}
	}
	for i, lc := range labels {
		labels[i].from = lc.lo + vector.VID(sort.Search(int(lc.to-lc.lo), func(k int) bool { return lc.key[k] >= kth }))
	}
	col := ctx.Arena.OwnColumn(to, vector.KindVID)
	index := ctx.Arena.OwnRanges(len(srcs))
	for i, r := range b.Runs {
		start := col.Len()
		for p := r.Start; p < r.End; p++ {
			vids, nb, ce, lo := b.PieceVIDs(b.Pieces[p]), cuts[4*p+1], cuts[4*p+2], cuts[4*p+3]
			if from := labels[cuts[4*p]].from; ce > 0 && vids[ce-1] >= from {
				col.AppendVIDs(vids[below(vids[:ce], from):ce])
			}
			for j, v := range vids[nb:] {
				if k := keys[lo+int32(j)]; k >= kth && n.passes(k) {
					col.AppendVID(v)
				}
			}
		}
		index[i] = core.Range{Start: int32(start), End: int32(col.Len())}
	}
	return col, index
}

// topK returns the K largest of keys within the bound, ascending: a long
// tail of loose keys costs no full sort.
func (n *Newest) topK(keys []int64) []int64 {
	var top []int64
	for _, k := range keys {
		if n.passes(k) && (len(top) < n.K || k > top[0]) {
			i, _ := slices.BinarySearch(top, k)
			if top = slices.Insert(top, i, k); len(top) > n.K {
				top = slices.Delete(top, 0, 1)
			}
		}
	}
	return top
}

// labelCut binds label: its own definition of the key, for the gathers, and
// when it is clustered on the key its clustered rows and the bound's cut.
func (n *Newest) labelCut(ctx *Ctx, label catalog.LabelID) labelCut {
	lc, cat := labelCut{label: label, heads: make([]head, 0, min(n.K, 64))}, ctx.View.Catalog()
	for i, d := range cat.LabelProps(label) {
		if d.Name == n.Key && (d.Kind == vector.KindInt64 || d.Kind == vector.KindDate) {
			lc.pid, lc.hasKey = catalog.PropID(i), true
		}
	}
	lo, col := ctx.View.Clustered(label)
	if pid, ok := cat.ClusterKey(label); !ok || !lc.hasKey || pid != lc.pid || col == nil {
		return lc
	}
	lc.key, lc.lo, lc.hi = col.Int64s(), lo, lo+vector.VID(col.Len())
	if lc.to = lc.hi; n.Bounded {
		lc.to = lo + vector.VID(sort.Search(len(lc.key), func(k int) bool { return !n.passes(lc.key[k]) }))
	}
	return lc
}

// push adds a run's head to its label's merge, which keeps the k largest: no
// other run holds one of the label's k largest keys.
func (lc *labelCut) push(h head, k int) {
	if len(lc.heads) == k {
		if h.vid <= lc.heads[0].vid {
			return
		}
		lc.heads = lc.heads[1:]
	}
	i := len(lc.heads)
	for lc.heads = append(lc.heads, h); i > 0 && lc.heads[i-1].vid > h.vid; i-- {
		lc.heads[i] = lc.heads[i-1]
	}
	lc.heads[i] = h
}

// below returns how many entries of the ascending vids are below x.
func below(vids []vector.VID, x vector.VID) int {
	lo, hi := 0, len(vids)
	if hi == 0 || vids[hi-1] < x {
		return hi
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); vids[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
