// Sorted-run intersection kernel shared by the cyclic-join operators
// (op.ExpandInto, op.ExpandIntersect) and the storage batch helper. A sealed
// CSR adjacency family stores each vertex's neighbors as one ascending run of
// VIDs, so edge-membership probes and k-way candidate intersections reduce to
// merge passes with galloping (exponential-then-binary) seeks — the Leapfrog
// Triejoin primitive specialized to two levels (source, neighbor).
package vector

// Gallop returns the smallest index >= lo with run[idx] >= v: exponential
// steps from lo, then binary search within the bracketed window. run must be
// sorted ascending from lo on. Cost is O(log d) in the distance d advanced,
// so a monotone sweep over the whole run totals O(n) comparisons.
//
//geslint:kernel
func Gallop(run []VID, lo int, v VID) int {
	if lo >= len(run) || run[lo] >= v {
		return lo
	}
	i, step := lo, 1
	for i+step < len(run) && run[i+step] < v {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > len(run) {
		hi = len(run)
	}
	l, h := i+1, hi
	for l < h {
		mid := int(uint(l+h) >> 1)
		if run[mid] < v {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return l
}

// RunCursor answers membership probes against one sorted run with a monotone
// cursor: consecutive ascending probes advance the cursor by galloping
// instead of restarting, so probing a whole sorted candidate sequence against
// the run costs one merge pass. A probe below the previous one resets the
// cursor (correct, just slower), so callers may feed unsorted candidates.
//
//geslint:snapshot-owner probe cursor over a shared sorted run; dropped with the expand state when the operator returns
type RunCursor struct {
	run  []VID
	pos  int
	last VID
}

// Reset points the cursor at a new run.
//
//geslint:kernel
func (c *RunCursor) Reset(run []VID) {
	c.run, c.pos, c.last = run, 0, 0
}

// Contains reports whether v is in the run.
//
//geslint:kernel
func (c *RunCursor) Contains(v VID) bool {
	if v < c.last {
		c.pos = 0
	}
	c.last = v
	c.pos = Gallop(c.run, c.pos, v)
	return c.pos < len(c.run) && c.run[c.pos] == v
}

// IntersectSorted appends to dst every element of base that is present in
// all probe runs, preserving base's order and multiplicity (duplicates in
// base emit duplicates; duplicates in probes do not). base and every probe
// must be sorted ascending. The walk leapfrogs: each probe gallops from its
// own cursor to the current base value, and when a probe overshoots to w > v
// the base cursor gallops forward to w instead of stepping — the
// worst-case-optimal seek pattern, O(k · min-run · log(max-run/min-run)).
//
//geslint:kernel
func IntersectSorted(dst, base []VID, probes [][]VID) []VID {
	if len(base) == 0 {
		return dst
	}
	for _, p := range probes {
		if len(p) == 0 {
			return dst
		}
	}
	//geslint:alloc-ok k-probe cursor array, k bounded by pattern arity; one small alloc amortized over the whole run walk
	pos := make([]int, len(probes))
	for i := 0; i < len(base); {
		v := base[i]
		ok := true
		for pi, p := range probes {
			j := Gallop(p, pos[pi], v)
			pos[pi] = j
			if j >= len(p) {
				// Probe exhausted: nothing larger can intersect.
				return dst
			}
			if p[j] != v {
				// Overshoot: skip base ahead to the probe's value.
				i = Gallop(base, i+1, p[j])
				ok = false
				break
			}
		}
		if ok {
			//geslint:alloc-ok append into the caller-owned dst buffer; capacity stabilizes after the first rows
			dst = append(dst, v)
			i++
		}
	}
	return dst
}
