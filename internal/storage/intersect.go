// Per-row k-way adjacency intersection over NeighborsBatch fan-outs — the
// batch-level kernel behind op.ExpandIntersect. Each side of a multiway
// cyclic join contributes one Batch (one adjacency run per owner row); the
// Intersector reduces row i to the vertices present in every side's run.
//
// Side 0 (the base) defines the output: its run is enumerated in storage
// order with multiplicity, filtered by membership in the remaining sides
// (the probes). When every batch is CSR-sorted the reduction is a leapfrog
// merge with galloping seeks (vector.IntersectSorted); sorted probes under
// an unsorted base answer through monotone cursors; unsorted probes (the
// runs of several families joined under Both or AnyLabel) answer through
// per-source hash sets. All paths are byte-identical — the sorted
// kernels are pure speedups, never semantic changes.
package storage

import "ges/internal/vector"

// Intersector computes per-row k-way intersections over one base batch and
// k-1 probe batches. It is single-goroutine state.
type Intersector struct {
	base      *Batch
	probes    []*Batch
	probeSrcs [][]vector.VID
	intersect bool
	allSorted bool

	runs    [][]vector.VID     // scratch: probe runs for the leapfrog path
	order   []int              // scratch: per-row probe evaluation order
	cursors []vector.RunCursor // per probe, reloaded per row
	useCur  []bool             // per probe: cursor (sorted) vs hash set
	sets    []probeSet
}

// probeSet caches the membership set built for one probe side's current
// source vertex. Owner rows repeat along a deep f-Tree node, so consecutive
// rows usually reuse the cached set instead of rebuilding it.
type probeSet struct {
	src   vector.VID
	valid bool
	set   map[vector.VID]struct{}
}

// Reset points the intersector at freshly filled batches, all covering the
// same row range. probeSrcs[p] is the source column probes[p] was filled
// from, used to key the per-source set cache. intersect=false forces the
// hash-set path even for sorted probes; the engine always passes true and
// lets Batch.Sorted select.
func (x *Intersector) Reset(base *Batch, probes []*Batch, probeSrcs [][]vector.VID, intersect bool) {
	x.base, x.probes, x.probeSrcs, x.intersect = base, probes, probeSrcs, intersect
	x.allSorted = intersect && base.Sorted
	for _, p := range probes {
		if !p.Sorted {
			x.allSorted = false
		}
	}
	if cap(x.cursors) < len(probes) {
		x.cursors = make([]vector.RunCursor, len(probes))
		x.useCur = make([]bool, len(probes))
		x.sets = make([]probeSet, len(probes))
	} else {
		x.cursors = x.cursors[:len(probes)]
		x.useCur = x.useCur[:len(probes)]
		x.sets = x.sets[:len(probes)]
		for i := range x.sets {
			x.sets[i].valid = false
		}
	}
}

// Row appends to dst the intersection for row i: the base run in order,
// filtered to elements present in every probe run. Duplicates in the base
// emit duplicates; duplicates in probes do not multiply.
//
//geslint:kernel
func (x *Intersector) Row(dst []vector.VID, i int) []vector.VID {
	b := x.base.Run(i)
	if len(b) == 0 {
		return dst
	}
	for _, p := range x.probes {
		if p.Runs[i].Start == p.Runs[i].End {
			return dst
		}
	}
	// Cheap per-row cardinality heuristic read off the pieces: evaluate
	// probes in ascending run-length (degree) order so the most selective
	// side short-circuits first. Conjunction commutes, so this is a pure
	// evaluation-order change — results are unchanged.
	x.order = x.order[:0]
	for pi := range x.probes {
		//geslint:alloc-ok per-row probe-order scratch, k entries; capacity stabilizes after the first row
		x.order = append(x.order, pi)
	}
	for a := 1; a < len(x.order); a++ {
		for c := a; c > 0 && x.probes[x.order[c]].RunLen(i) < x.probes[x.order[c-1]].RunLen(i); c-- {
			x.order[c], x.order[c-1] = x.order[c-1], x.order[c]
		}
	}
	if x.allSorted {
		x.runs = x.runs[:0]
		for _, pi := range x.order {
			//geslint:alloc-ok leapfrog run-list scratch, k entries; capacity stabilizes after the first row
			x.runs = append(x.runs, x.probes[pi].Run(i))
		}
		return vector.IntersectSorted(dst, b, x.runs)
	}
	// Mixed path: enumerate the base in order; each sorted probe answers
	// through a monotone galloping cursor, each unsorted one through its
	// cached per-source hash set.
	for pi, p := range x.probes {
		if x.intersect && p.Sorted {
			x.useCur[pi] = true
			x.cursors[pi].Reset(p.Run(i))
		} else {
			x.useCur[pi] = false
			x.loadSet(pi, i)
		}
	}
outer:
	for _, v := range b {
		for _, pi := range x.order {
			if x.useCur[pi] {
				if !x.cursors[pi].Contains(v) {
					continue outer
				}
			} else if _, ok := x.sets[pi].set[v]; !ok {
				continue outer
			}
		}
		//geslint:alloc-ok append into the caller-owned dst buffer; capacity stabilizes after the first rows
		dst = append(dst, v)
	}
	return dst
}

// loadSet materializes probe pi's run for row i into a hash set, reusing the
// cached set when the source vertex repeats.
func (x *Intersector) loadSet(pi, i int) {
	src := x.probeSrcs[pi][i]
	s := &x.sets[pi]
	if s.valid && s.src == src {
		return
	}
	run := x.probes[pi].Run(i)
	s.src, s.valid = src, true
	//geslint:alloc-ok hash-set fallback for unsorted runs; rebuilt only when the probe's source vertex changes
	s.set = make(map[vector.VID]struct{}, len(run))
	for _, v := range run {
		s.set[v] = struct{}{}
	}
}
