// Delta overlay: the small mutable side of a sealed CSR image, and the home of
// every edge written since the image was built (§5's tombstone-and-regrow
// design under MV2PL). Every image sealCSR builds carries an adjDelta; while
// it is empty the image serves exactly as before (every batch piece a view of
// the image, sorted runs). An insert — a transaction's committed edge, stamped with its
// commit version, or an unversioned AddEdge — lands in a per-source
// copy-on-write run, a DeleteEdge tombstones one sealed neighbor position (or
// retracts a delta insert), and readers merge the two sides with a per-source
// two-cursor walk that keeps the ascending-VID order and skips the entries
// stamped after the version they read at — so galloping intersection and the
// WCOJ path keep engaging. The delta is the sealed phase's only write target:
// when it outgrows the reseal policy, reseal.go folds the entries at or below
// the fold horizon (the oldest pinned snapshot) into a fresh image with the
// same merge, off the read path, and carries the newer ones into the fresh
// image's delta.
//
// Concurrency contract: all mutators hold AdjList.wmu, so delta writes are
// serialized; readers never lock. Runs sit in a VIDMap keyed by source — a
// lookup is a lock-free probe — and are immutable once published: an insert or
// retraction replaces the run wholesale. Tombstone words are atomics: a
// reader observes each set bit or not. A read at a version is therefore
// stable while commits continue (their entries carry newer versions); a read
// racing an unversioned mutation sees the count change and reads the run
// again (pack.go).
package storage

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"ges/internal/vector"
)

// Latest is the version a Graph's own reads see: every delta entry, whatever
// its stamp.
const Latest = ^uint64(0)

// adjDelta overlays one sealed csr image: per-source sorted insert runs plus
// a tombstone bitmap over the image's neighbor positions. It is paired 1:1
// with its image (csr.delta) and published with it, so a reader that loaded
// an image always merges against the matching delta.
//
//geslint:snapshot-owner paired 1:1 with its sealed image and published behind the same atomic pointer; mutated only under AdjList.wmu through atomics and copy-on-write runs
type adjDelta struct {
	runs VIDMap[deltaRun] // per-source insert runs, copy-on-write

	// tombs is a fixed-size bitmap over the sealed image's neighbor
	// positions: bit set = entry deleted. Written only under AdjList.wmu
	// (Load|Store read-modify-write is race-free there); read lock-free.
	tombs  []atomic.Uint64
	nTombs atomic.Int64 // tombstoned sealed positions

	propKinds []vector.Kind // shared with the owning family's schema

	nIns atomic.Int64 // live delta insert entries
	// minVer is the lowest version among the live inserts (Latest while there
	// are none; a retraction may leave it lower than it is): a reseal at a
	// horizon below it would fold nothing.
	minVer atomic.Uint64
}

// newAdjDelta sizes an empty delta for an image of sealedLen neighbors.
func newAdjDelta(sealedLen int, kinds []vector.Kind) *adjDelta {
	d := &adjDelta{tombs: make([]atomic.Uint64, (sealedLen+63)/64), propKinds: kinds}
	d.minVer.Store(Latest)
	return d
}

// isEmpty reports whether the delta holds no inserts and no tombstones: a
// batched read then takes every run of the image as it is, unprobed.
func (d *adjDelta) isEmpty() bool { return d.nIns.Load() == 0 && d.nTombs.Load() == 0 }

// depth is the total overlay entry count (inserts plus tombstones).
func (d *adjDelta) depth() int64 { return d.nIns.Load() + d.nTombs.Load() }

// canFold reports whether a reseal at horizon h would move anything into the
// image: a tombstone, or an insert stamped at or below h.
func (d *adjDelta) canFold(h uint64) bool {
	return d.nTombs.Load() > 0 || (d.nIns.Load() > 0 && d.minVer.Load() <= h)
}

// tombstoned reports whether sealed neighbor position pos is deleted.
func (d *adjDelta) tombstoned(pos int) bool {
	return d.tombs[pos>>6].Load()&(1<<uint(pos&63)) != 0
}

// tombsIn counts the tombstoned positions in [lo,hi).
func (d *adjDelta) tombsIn(lo, hi int) int {
	if lo >= hi || d.nTombs.Load() == 0 {
		return 0
	}
	n := 0
	for w, last := lo>>6, (hi-1)>>6; w <= last; w++ {
		word := d.tombs[w].Load()
		if w == lo>>6 {
			word &^= 1<<uint(lo&63) - 1
		}
		if w == last && hi&63 != 0 {
			word &= 1<<uint(hi&63) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// nextTomb returns the first tombstoned position in [lo,hi), or hi.
func (d *adjDelta) nextTomb(lo, hi int) int {
	if lo >= hi || d.nTombs.Load() == 0 {
		return hi
	}
	for w, last := lo>>6, (hi-1)>>6; w <= last; w++ {
		word := d.tombs[w].Load()
		if w == lo>>6 {
			word &^= 1<<uint(lo&63) - 1
		}
		if word != 0 {
			return min(w<<6+bits.TrailingZeros64(word), hi)
		}
	}
	return hi
}

// setTombstone marks sealed position pos dead. The Load|Store
// read-modify-write is safe because tombstone words are written only under
// AdjList.wmu (atomic.Uint64.Or would need a newer Go than the module
// targets).
func (d *adjDelta) setTombstone(pos int) {
	w := &d.tombs[pos>>6]
	w.Store(w.Load() | 1<<uint(pos&63))
}

// insert records one edge src→dst stamped ver (props ordered per the edge
// schema) by replacing src's run with its copy-on-write successor. Caller
// holds AdjList.wmu.
func (d *adjDelta) insert(src, dst vector.VID, ver uint64, props []vector.Value) {
	d.runs.Store(src, d.runs.Load(src).withInsert(dst, ver, props, d.propKinds))
	d.nIns.Add(1)
	if ver < d.minVer.Load() {
		d.minVer.Store(ver)
	}
}

// carry installs r, a run a reseal did not fold, as src's run. Caller holds
// AdjList.wmu.
func (d *adjDelta) carry(src vector.VID, r *deltaRun) {
	d.runs.Store(src, r)
	d.nIns.Add(int64(len(r.dsts)))
	if r.minVer < d.minVer.Load() {
		d.minVer.Store(r.minVer)
	}
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
	old := d.runs.Load(src)
	if old == nil {
		return false
	}
	nr, ok := old.withRemove(dst, d.propKinds)
	if !ok {
		return false
	}
	d.runs.Store(src, nr)
	d.nIns.Add(-1)
	return true
}

// memBytes approximates the delta's resident size.
func (d *adjDelta) memBytes() int {
	n := len(d.tombs) * 8
	d.runs.Range(func(_ vector.VID, r *deltaRun) {
		n += 160 + len(r.dsts)*12 + r.props.bytes(d.propKinds)
	})
	return n
}

// deltaRun is one source's overlay insert run: destinations sorted ascending
// (insertion order among equal VIDs, as the bulk seal leaves them), each
// stamped with the version that wrote it, with edge-property columns aligned
// element-for-element.
//
//geslint:snapshot-owner immutable once published in adjDelta.runs; mutation replaces the run wholesale under AdjList.wmu
type deltaRun struct {
	dsts []vector.VID
	// vers is each entry's commit version (0 for an unversioned insert, which
	// every read sees); minVer and maxVer bound it, so a run wholly at or
	// below a read's version is taken whole and one wholly above it skipped.
	vers           []uint64
	minVer, maxVer uint64
	props          EdgeCols
}

// visible counts the entries a read at ver sees.
//
//geslint:kernel
func (r *deltaRun) visible(ver uint64) int {
	switch {
	case r == nil || r.minVer > ver:
		return 0
	case r.maxVer <= ver:
		return len(r.dsts)
	}
	n := 0
	for _, v := range r.vers {
		if v <= ver {
			n++
		}
	}
	return n
}

// withInsert returns the run's successor with dst inserted after any equal
// destinations (stable: delta entries keep insertion order on ties). A nil
// receiver yields a one-entry run.
func (r *deltaRun) withInsert(dst vector.VID, ver uint64, props []vector.Value, kinds []vector.Kind) *deltaRun {
	var cur deltaRun
	if r != nil {
		cur = *r
	} else {
		cur.minVer, cur.maxVer = ver, ver
	}
	at := sort.Search(len(cur.dsts), func(i int) bool { return cur.dsts[i] > dst })
	nr := &deltaRun{
		dsts:   insertAt(cur.dsts, at, dst),
		vers:   insertAt(cur.vers, at, ver),
		minVer: min(cur.minVer, ver),
		maxVer: max(cur.maxVer, ver),
	}
	if len(kinds) == 0 {
		return nr
	}
	nr.allocProps(kinds)
	for p, k := range kinds {
		var v vector.Value
		if p < len(props) {
			v = props[p]
		}
		switch k {
		case vector.KindInt64, vector.KindDate:
			nr.props.I64[p] = insertAt(column(cur.props.I64, p), at, v.I)
		case vector.KindFloat64:
			nr.props.F64[p] = insertAt(column(cur.props.F64, p), at, v.F)
		case vector.KindString:
			nr.props.Str[p] = insertAt(column(cur.props.Str, p), at, v.S)
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
	if len(r.dsts) == 1 {
		return nil, true
	}
	nr := &deltaRun{dsts: removeAt(r.dsts, at), vers: removeAt(r.vers, at)}
	nr.minVer, nr.maxVer = Latest, 0
	for _, v := range nr.vers {
		nr.minVer, nr.maxVer = min(nr.minVer, v), max(nr.maxVer, v)
	}
	if len(kinds) == 0 {
		return nr, true
	}
	nr.allocProps(kinds)
	for p, k := range kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			nr.props.I64[p] = removeAt(r.props.I64[p], at)
		case vector.KindFloat64:
			nr.props.F64[p] = removeAt(r.props.F64[p], at)
		case vector.KindString:
			nr.props.Str[p] = removeAt(r.props.Str[p], at)
		}
	}
	return nr, true
}

// newerThan returns the entries stamped after h, in order — what a reseal at
// horizon h leaves in the delta — or nil when there are none.
func (r *deltaRun) newerThan(h uint64, kinds []vector.Kind) *deltaRun {
	switch {
	case r.maxVer <= h:
		return nil
	case r.minVer > h:
		return r
	}
	nr := &deltaRun{dsts: newer(r.dsts, r.vers, h), vers: newer(r.vers, r.vers, h)}
	nr.minVer, nr.maxVer = Latest, r.maxVer
	for _, v := range nr.vers {
		nr.minVer = min(nr.minVer, v)
	}
	if len(kinds) == 0 {
		return nr
	}
	nr.allocProps(kinds)
	for p, k := range kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			nr.props.I64[p] = newer(r.props.I64[p], r.vers, h)
		case vector.KindFloat64:
			nr.props.F64[p] = newer(r.props.F64[p], r.vers, h)
		case vector.KindString:
			nr.props.Str[p] = newer(r.props.Str[p], r.vers, h)
		}
	}
	return nr
}

// allocProps sizes the run's property columns for the schema: only the
// column sets of kinds the schema has are allocated.
func (r *deltaRun) allocProps(kinds []vector.Kind) {
	for _, k := range kinds {
		switch k {
		case vector.KindInt64, vector.KindDate:
			if r.props.I64 == nil {
				r.props.I64 = make([][]int64, len(kinds))
			}
		case vector.KindFloat64:
			if r.props.F64 == nil {
				r.props.F64 = make([][]float64, len(kinds))
			}
		case vector.KindString:
			if r.props.Str == nil {
				r.props.Str = make([][]string, len(kinds))
			}
		}
	}
}

// column returns property column p of cols, nil for a run that has none yet
// (the zero run a first insert starts from).
func column[E any](cols [][]E, p int) []E {
	if cols == nil {
		return nil
	}
	return cols[p]
}

// insertAt returns a copy of s with x inserted at i.
func insertAt[E any](s []E, i int, x E) []E {
	out := make([]E, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// removeAt returns a copy of s without element i.
func removeAt[E any](s []E, i int) []E {
	out := make([]E, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// newer returns the elements of s whose aligned version is above h.
func newer[E any](s []E, vers []uint64, h uint64) []E {
	var out []E
	for j, v := range vers {
		if v > h {
			out = append(out, s[j])
		}
	}
	return out
}
