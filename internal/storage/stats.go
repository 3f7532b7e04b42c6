package storage

import (
	"time"

	"ges/internal/catalog"
	"ges/internal/stats"
)

// sealStats derives the planner's statistics snapshot in one pass over the
// freshly sealed graph: label cardinalities from the property tables,
// per-family degree histograms from the images' offsets, and per-column
// selectivity summaries rolled up from the zone maps and string
// dictionaries the gather path already maintains. Published behind the same
// atomic-pointer discipline as the CSR: every SealCSR rebuilds it under a
// bumped epoch, later mutations leave it published and background reseals
// rebase it family by family (reseal.go). SealCSR calls it right after
// sealing every family, so the images it reads are the current ones; a write
// racing a later SealCSR counts toward the staleness gauge instead.
func (g *Graph) sealStats() {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	start := time.Now()
	b := stats.NewBuilder(g.statsEpoch.Add(1))
	for label, t := range *g.tables.Load() {
		b.Label(catalog.LabelID(label), len(t.vids))
		for i, c := range t.cols {
			b.Column(
				stats.ColKey{Label: catalog.LabelID(label), Prop: t.defs[i].Name},
				stats.SummarizeColumn(c),
			)
		}
	}
	for key, l := range g.fams.Load().adj {
		fk := stats.FamKey{Src: key.Src, Et: key.Et, Dst: key.Dst, Dir: key.Dir}
		c := l.snap.Load()
		for v := 0; v+1 < len(c.offsets); v++ {
			b.AddDegree(fk, int(c.offsets[v+1]-c.offsets[v]))
		}
	}
	g.statsSnap.Store(b.Finish(time.Since(start)))
	g.statsStale.Store(0)
}

// Stats returns the current statistics snapshot, or nil before the first
// SealCSR. Later mutations leave the snapshot published — mildly stale
// between reseals — so cost-based planning never degrades to the syntactic
// fallback under sustained writes.
func (g *Graph) Stats() *stats.Snapshot { return g.statsSnap.Load() }

// StatsEpoch returns the epoch of the current snapshot, or 0 before the
// first SealCSR. The plan cache (cypher.Cache) keys on it; background
// reseals bump it monotonically, so cached plans shaped for pre-reseal
// cardinalities retire on the next lookup.
func (g *Graph) StatsEpoch() uint64 {
	if s := g.statsSnap.Load(); s != nil {
		return s.Epoch
	}
	return 0
}

// noteMutation records an edge write against the statistics snapshot: once
// one is published (first SealCSR) it stays published, commits only bump the
// staleness gauge, and background reseals rebase the families that actually
// drift. Bulk-phase writes have no snapshot to be stale against.
func (g *Graph) noteMutation() {
	if g.sealedPhase.Load() {
		g.statsStale.Add(1)
	}
}
