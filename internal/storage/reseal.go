// Background reseal — the fold of committed writes into the images: when a
// family's delta overlay outgrows the reseal policy and holds something at or
// below the fold horizon, image and delta are merged off the read path into a
// fresh image that is swapped in atomically, the entries newer than the
// horizon carried into its delta. Readers never block — in-flight operations
// finish against the image they loaded; the published statistics snapshot is
// rebased (the resealed family's summary replaced, epoch bumped) rather than
// dropped, so the plan cache degrades to mildly-stale estimates instead of
// the statistics-free, as-written plan.
package storage

import (
	"sort"
	"time"

	"ges/internal/stats"
)

// maybeReseal schedules a background rebuild of one family once its delta
// crosses the reseal policy (at least resealMin entries and more than
// resealFrac of the sealed entry count) and the fold horizon lets it fold
// something.
func (g *Graph) maybeReseal(key AdjKey, l *AdjList) {
	c := l.snap.Load()
	if c == nil {
		return
	}
	n := int(c.delta.nIns.Load())
	if n < g.resealMin || float64(n) <= g.resealFrac*float64(len(c.neighbors)) || !c.delta.canFold(g.foldHorizon()) {
		return
	}
	g.scheduleReseal(key, l)
}

// scheduleReseal claims the family's reseal flag and hands the rebuild to
// the injected executor; with none (or one that declines it) it runs inline
// on the calling goroutine.
func (g *Graph) scheduleReseal(key AdjKey, l *AdjList) {
	if !l.resealing.CompareAndSwap(false, true) {
		return
	}
	task := func() { g.resealFamily(key, l) }
	if g.resealSubmit == nil || !g.resealSubmit(task) {
		task()
	}
}

// resealFamily folds one family's delta, up to the fold horizon, into its next
// image (seal excludes writers via wmu; readers keep the old image until the
// atomic swap) and rebases the statistics snapshot with the family's fresh
// degree summary.
func (g *Graph) resealFamily(key AdjKey, l *AdjList) {
	start := time.Now()
	folded := l.seal(g.foldHorizon())
	l.resealing.Store(false)
	if !folded {
		return
	}
	g.resealCount.Add(1)
	g.resealNanos.Add(int64(time.Since(start)))
	g.rebaseStats(key, l.snap.Load())
}

// rebaseStats republishes the statistics snapshot with one family's degree
// summary recomputed from its freshly sealed image, under a bumped epoch —
// the alternative to dropping the snapshot. No-op while no snapshot is
// published (a reseal racing the tail of the first SealCSR).
func (g *Graph) rebaseStats(key AdjKey, c *csr) {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	cur := g.statsSnap.Load()
	if cur == nil {
		return
	}
	var acc stats.FamilyAcc
	for v := 0; v+1 < len(c.offsets); v++ {
		acc.Add(int(c.offsets[v+1] - c.offsets[v]))
	}
	fk := stats.FamKey{Src: key.Src, Et: key.Et, Dst: key.Dst, Dir: key.Dir}
	g.statsSnap.Store(stats.Rebase(cur, g.statsEpoch.Add(1), fk, acc.Family()))
	g.statsStale.Store(0)
}

// OverlayFamilyStats describes one family's delta overlay for the /stats
// endpoint.
type OverlayFamilyStats struct {
	Key           AdjKey
	SealedEntries int     // neighbor entries in the published image
	Inserts       int64   // delta insert entries
	DeltaFraction float64 // delta inserts / sealed entries
}

// OverlayStats aggregates delta-overlay and reseal gauges across families.
type OverlayStats struct {
	Families         int // adjacency families
	WithDelta        int // families with a non-empty delta
	Inserts          int64
	MaxDeltaFraction float64
	Reseals          int64         // background reseals completed
	ResealTime       time.Duration // total wall time spent resealing
	StatsStale       int64         // mutations since the last stats publication
	StatsEpoch       uint64
}

// deltaFraction is the delta's insert count relative to the sealed entry count
// (against max(entries,1) so tiny families still report pressure).
func deltaFraction(inserts int64, sealedEntries int) float64 {
	if sealedEntries < 1 {
		sealedEntries = 1
	}
	return float64(inserts) / float64(sealedEntries)
}

// Overlay reports the aggregate overlay gauges. Safe under concurrent
// mutation — it reads only atomics.
func (g *Graph) Overlay() OverlayStats {
	o := OverlayStats{
		Reseals:    g.resealCount.Load(),
		ResealTime: time.Duration(g.resealNanos.Load()),
		StatsStale: g.statsStale.Load(),
		StatsEpoch: g.StatsEpoch(),
	}
	for _, l := range g.fams.Load().adj {
		o.Families++
		c := l.snap.Load()
		if c == nil {
			continue // the bulk phase: nothing is sealed yet
		}
		ins := c.delta.nIns.Load()
		if ins > 0 {
			o.WithDelta++
		}
		o.Inserts += ins
		if f := deltaFraction(ins, len(c.neighbors)); f > o.MaxDeltaFraction {
			o.MaxDeltaFraction = f
		}
	}
	return o
}

// OverlayFamilies reports per-family overlay depth in deterministic key
// order. Safe under concurrent mutation.
func (g *Graph) OverlayFamilies() []OverlayFamilyStats {
	adj := g.fams.Load().adj
	out := make([]OverlayFamilyStats, 0, len(adj))
	for key, l := range adj {
		fs := OverlayFamilyStats{Key: key}
		if c := l.snap.Load(); c != nil {
			fs.SealedEntries = len(c.neighbors)
			fs.Inserts = c.delta.nIns.Load()
			fs.DeltaFraction = deltaFraction(fs.Inserts, fs.SealedEntries)
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Et != b.Et {
			return a.Et < b.Et
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Dir < b.Dir
	})
	return out
}
