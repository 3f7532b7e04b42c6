// Package stats holds the statistics snapshot the planner reads: per-family
// degree histograms, label cardinalities and per-column selectivity
// summaries, all derived in one pass over the sealed CSR at
// Graph.SealCSR() time (§10 of DESIGN.md).
//
// A Snapshot follows the same ownership discipline as the CSR image it is
// built from: it is assembled privately through a Builder, sealed by
// Finish, and published behind an atomic pointer in internal/storage.
// After publication nothing may mutate it — any base-graph mutation
// invalidates the pointer and the next seal rebuilds from scratch. geslint
// rule R3 enforces the no-write-outside-stats part statically.
package stats

import (
	"sort"
	"time"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// FamKey identifies one adjacency family: edges of type Et seen from
// Src-labeled vertices toward Dst-labeled vertices in direction Dir. It
// mirrors storage.AdjKey (not imported to keep stats dependency-free).
type FamKey struct {
	Src catalog.LabelID
	Et  catalog.EdgeTypeID
	Dst catalog.LabelID
	Dir catalog.Direction
}

// Family summarizes one adjacency family's degree distribution.
type Family struct {
	// Edges is the total neighbor count over all sources (directed).
	Edges int
	// Sources is the number of vertices with degree >= 1.
	Sources int
	// MaxDegree is the largest per-source degree.
	MaxDegree int
	// Hist is the equi-depth histogram over log2-degree.
	Hist Histogram
}

// ColKey identifies one vertex property column by label and property name.
type ColKey struct {
	Label catalog.LabelID
	Prop  string
}

// Column summarizes one property column for selectivity estimation: value
// bounds for ordered kinds (a min/max pass over the values) and a distinct
// count for dictionary-encoded strings.
type Column struct {
	Kind vector.Kind
	Rows int
	// MinI/MaxI bound int64 and date columns; MinF/MaxF bound float64
	// columns. Meaningless when Rows == 0.
	MinI, MaxI int64
	MinF, MaxF float64
	// Distinct is the number of distinct values (exact for dict-encoded
	// strings — the dictionary size; 0 when unknown).
	Distinct int
}

// Snapshot is one immutable statistics image of a sealed base graph.
type Snapshot struct {
	// Epoch increments on every rebuild; the service folds it into plan
	// cache keys so a reseal invalidates plans
	// shaped for stale cardinalities.
	Epoch uint64
	// Build is how long the one-pass derivation took.
	Build time.Duration

	Vertices int
	Edges    int

	Labels   map[catalog.LabelID]int
	Families map[FamKey]Family
	Columns  map[ColKey]Column
}

// Label returns the cardinality of a label (0 if unseen).
func (s *Snapshot) Label(l catalog.LabelID) int {
	if s == nil {
		return 0
	}
	return s.Labels[l]
}

// Family returns the summary of one adjacency family.
func (s *Snapshot) Family(k FamKey) (Family, bool) {
	if s == nil {
		return Family{}, false
	}
	f, ok := s.Families[k]
	return f, ok
}

// Column returns the summary of one property column.
func (s *Snapshot) Column(k ColKey) (Column, bool) {
	if s == nil {
		return Column{}, false
	}
	c, ok := s.Columns[k]
	return c, ok
}

// histDepth is the number of equi-depth buckets a Histogram targets.
const histDepth = 8

// Bucket is one equi-depth histogram bucket: Count sources have degree in
// [Lo, Hi].
type Bucket struct {
	Lo, Hi int
	Count  int
}

// Histogram is an equi-depth summary of a degree distribution at
// log2-degree resolution: degrees are first folded into power-of-two cells
// (1, 2, 3-4, 5-8, ...), then the cumulative distribution is split into up
// to histDepth buckets of roughly equal source count. Zero-degree vertices
// are not represented — they produce no expansion work.
type Histogram struct {
	Buckets []Bucket
}

// logCell returns the log2-degree cell of d (d >= 1): cell c covers degrees
// (2^(c-1), 2^c], so cell 0 = {1}, cell 1 = {2}, cell 2 = {3,4}, ...
func logCell(d int) int {
	c := 0
	for 1<<c < d {
		c++
	}
	return c
}

// cellBounds returns the degree range covered by cell c.
func cellBounds(c int) (lo, hi int) {
	if c == 0 {
		return 1, 1
	}
	return 1<<(c-1) + 1, 1 << c
}

// buildHistogram folds the per-cell source counts into equi-depth buckets.
func buildHistogram(cells []int, sources int) Histogram {
	var h Histogram
	if sources == 0 {
		return h
	}
	target := (sources + histDepth - 1) / histDepth
	cur := Bucket{Lo: -1}
	for c, n := range cells {
		if n == 0 {
			continue
		}
		lo, hi := cellBounds(c)
		if cur.Lo < 0 {
			cur.Lo = lo
		}
		cur.Hi = hi
		cur.Count += n
		if cur.Count >= target {
			h.Buckets = append(h.Buckets, cur)
			cur = Bucket{Lo: -1}
		}
	}
	if cur.Lo >= 0 {
		h.Buckets = append(h.Buckets, cur)
	}
	return h
}

// Sources returns the total source count the histogram covers.
func (h Histogram) Sources() int {
	n := 0
	for _, b := range h.Buckets {
		n += b.Count
	}
	return n
}

// Quantile returns the smallest degree bound that covers at least fraction
// q of sources (0 for an empty histogram).
func (h Histogram) Quantile(q float64) int {
	total := h.Sources()
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	acc := 0.0
	for _, b := range h.Buckets {
		acc += float64(b.Count)
		if acc >= want {
			return b.Hi
		}
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// SummarizeColumn summarizes a property column into the single-column
// summary the cost model reads: value bounds in one pass over an ordered
// column, the dictionary size of a string one. It lives here, not in the
// caller, so geslint R3 can hold that stats types are only ever written
// inside this package.
func SummarizeColumn(c *vector.Column) Column {
	s := Column{Kind: c.Kind, Rows: c.Len()}
	switch c.Kind {
	case vector.KindInt64, vector.KindDate:
		s.MinI, s.MaxI = bounds(c.Int64s())
	case vector.KindFloat64:
		s.MinF, s.MaxF = bounds(c.Float64s())
	case vector.KindString:
		if d := c.Dict(); d != nil {
			s.Distinct = d.Len()
		}
	}
	return s
}

// bounds returns the smallest and largest of vals, zeros when it is empty.
func bounds[T int64 | float64](vals []T) (lo, hi T) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Builder accumulates a Snapshot. It is single-writer; Finish seals the
// result and the builder must not be reused.
type Builder struct {
	snap *Snapshot
	acc  map[FamKey]*FamilyAcc
}

// FamilyAcc accumulates one adjacency family's degree distribution. It is
// exported (unlike the Builder's internal use of it) so the storage layer's
// reseal path can fold a freshly rebuilt family into an existing snapshot
// via Rebase — the accumulation lives here, not in the caller, so geslint
// R3 can hold that stats types are only ever written inside this package.
type FamilyAcc struct {
	cells   []int
	edges   int
	sources int
	max     int
}

// Add folds one source vertex's degree in. Zero degrees are ignored.
func (a *FamilyAcc) Add(d int) {
	if d <= 0 {
		return
	}
	c := logCell(d)
	for len(a.cells) <= c {
		a.cells = append(a.cells, 0)
	}
	a.cells[c]++
	a.edges += d
	a.sources++
	if d > a.max {
		a.max = d
	}
}

// Family seals the accumulated distribution into a Family summary.
func (a *FamilyAcc) Family() Family {
	return Family{
		Edges:     a.edges,
		Sources:   a.sources,
		MaxDegree: a.max,
		Hist:      buildHistogram(a.cells, a.sources),
	}
}

// Rebase derives a snapshot from s with one family's summary replaced and
// a fresh epoch — how a background reseal keeps statistics published under
// sustained writes instead of dropping them. The label and column maps are
// shared with s (immutable after publication); the family map is copied.
func Rebase(s *Snapshot, epoch uint64, k FamKey, f Family) *Snapshot {
	ns := &Snapshot{
		Epoch:    epoch,
		Build:    s.Build,
		Vertices: s.Vertices,
		Labels:   s.Labels,
		Columns:  s.Columns,
		Families: make(map[FamKey]Family, len(s.Families)+1),
	}
	for fk, ff := range s.Families {
		ns.Families[fk] = ff
	}
	ns.Families[k] = f
	for fk, ff := range ns.Families {
		if fk.Dir == catalog.Out {
			ns.Edges += ff.Edges
		}
	}
	return ns
}

// NewBuilder starts a snapshot at the given epoch.
func NewBuilder(epoch uint64) *Builder {
	return &Builder{
		snap: &Snapshot{
			Epoch:    epoch,
			Labels:   make(map[catalog.LabelID]int),
			Families: make(map[FamKey]Family),
			Columns:  make(map[ColKey]Column),
		},
		acc: make(map[FamKey]*FamilyAcc),
	}
}

// Label records the cardinality of a label.
func (b *Builder) Label(l catalog.LabelID, card int) {
	b.snap.Labels[l] = card
	b.snap.Vertices += card
}

// Column records one property column summary.
func (b *Builder) Column(k ColKey, c Column) { b.snap.Columns[k] = c }

// AddDegree folds one source vertex's degree into a family accumulator.
// Zero degrees are ignored.
func (b *Builder) AddDegree(k FamKey, d int) {
	a := b.acc[k]
	if a == nil {
		if d <= 0 {
			return
		}
		a = &FamilyAcc{}
		b.acc[k] = a
	}
	a.Add(d)
}

// Finish seals the snapshot. The builder must not be used afterwards.
func (b *Builder) Finish(build time.Duration) *Snapshot {
	for k, a := range b.acc {
		b.snap.Families[k] = a.Family()
		if k.Dir == catalog.Out {
			b.snap.Edges += a.edges
		}
	}
	b.snap.Build = build
	s := b.snap
	b.snap, b.acc = nil, nil
	return s
}

// FamKeys returns the snapshot's family keys in deterministic order (for
// observability endpoints and tests).
func (s *Snapshot) FamKeys() []FamKey {
	if s == nil {
		return nil
	}
	ks := make([]FamKey, 0, len(s.Families))
	for k := range s.Families {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
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
	return ks
}
