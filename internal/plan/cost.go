// Cost model over the statistics snapshot internal/storage derives at
// SealCSR() time. The cypher binder consults it to pick the scan anchor,
// orient each Expand, order the frontier and shape the f-Tree root; the
// formulas are documented in DESIGN.md §10.
//
// LabelCard and FanOut tolerate a nil receiver — a nil *CostModel means
// "no statistics": both estimate 1, the binder estimates every filter as 1
// too, so its walk ties everywhere and binds the pattern as written, and
// the planner degrades rather than fails when the snapshot is invalidated.
// The selectivity methods read column summaries and need a model.
package plan

import (
	"ges/internal/catalog"
	"ges/internal/stats"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Default selectivities when the snapshot has no usable column summary.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultStrSel   = 0.25
)

// CostModel estimates cardinalities from a sealed statistics snapshot.
type CostModel struct {
	s *stats.Snapshot
}

// NewCostModel wraps a snapshot; a nil snapshot yields a nil model.
func NewCostModel(s *stats.Snapshot) *CostModel {
	if s == nil {
		return nil
	}
	return &CostModel{s: s}
}

// LabelCard estimates the number of vertices carrying a label. The
// wildcard (storage.AnyLabel, which the binder never produces for scans)
// and unseen labels estimate as the full vertex count.
func (c *CostModel) LabelCard(l catalog.LabelID) float64 {
	if c == nil {
		return 1
	}
	if n, ok := c.s.Labels[l]; ok {
		return float64(n)
	}
	return float64(c.s.Vertices)
}

// FanOut estimates the average number of neighbors a src-labeled vertex
// reaches over (et, dir) toward dst — total family edges over the source
// label's cardinality, so zero-degree vertices dilute the average exactly
// as they dilute an Expand's output. Both sums the two directions; a
// wildcard dst sums every family with the (src, et, dir) prefix.
func (c *CostModel) FanOut(src catalog.LabelID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) float64 {
	if c == nil {
		return 1
	}
	if dir == catalog.Both {
		return c.FanOut(src, et, catalog.Out, dst) + c.FanOut(src, et, catalog.In, dst)
	}
	card := c.LabelCard(src)
	if card == 0 {
		return 0
	}
	edges := 0
	for k, f := range c.s.Families {
		if k.Src == src && k.Et == et && k.Dir == dir && (dst == k.Dst || dst == storage.AnyLabel) {
			edges += f.Edges
		}
	}
	return float64(edges) / card
}

// EqSel estimates the selectivity of `prop = value` on a label: the
// reciprocal of the distinct count for dict-encoded strings, the
// reciprocal of the value span for bounded integers, else a default.
func (c *CostModel) EqSel(label catalog.LabelID, prop string) float64 {
	col, ok := c.s.Columns[stats.ColKey{Label: label, Prop: prop}]
	if !ok || col.Rows == 0 {
		return defaultEqSel
	}
	floor := 1 / float64(col.Rows)
	if col.Distinct > 0 {
		return clampSel(1/float64(col.Distinct), floor)
	}
	switch col.Kind {
	case vector.KindInt64, vector.KindDate:
		if span := col.MaxI - col.MinI + 1; span > 0 {
			return clampSel(1/float64(span), floor)
		}
	}
	return defaultEqSel
}

// RangeSel estimates the selectivity of an open range `prop < v` /
// `prop >= v` etc. by uniform interpolation over the column's bounds.
// op is one of "<", "<=", ">", ">=".
func (c *CostModel) RangeSel(label catalog.LabelID, prop string, op string, v vector.Value) float64 {
	col, ok := c.s.Columns[stats.ColKey{Label: label, Prop: prop}]
	if !ok || col.Rows == 0 {
		return defaultRangeSel
	}
	var lo, hi, x float64
	switch col.Kind {
	case vector.KindInt64, vector.KindDate:
		if v.Kind != vector.KindInt64 && v.Kind != vector.KindDate {
			return defaultRangeSel
		}
		lo, hi, x = float64(col.MinI), float64(col.MaxI), float64(v.I)
	case vector.KindFloat64:
		if v.Kind != vector.KindFloat64 {
			return defaultRangeSel
		}
		lo, hi, x = col.MinF, col.MaxF, v.F
	default:
		return defaultRangeSel
	}
	if hi <= lo {
		return defaultRangeSel
	}
	below := (x - lo) / (hi - lo)
	if below < 0 {
		below = 0
	} else if below > 1 {
		below = 1
	}
	switch op {
	case "<", "<=":
		return clampSel(below, 0)
	case ">", ">=":
		return clampSel(1-below, 0)
	}
	return defaultRangeSel
}

// StrSel is the default selectivity for CONTAINS / STARTS WITH / ENDS WITH
// predicates, which the snapshot cannot summarize.
func (c *CostModel) StrSel() float64 { return defaultStrSel }

// InSel estimates the selectivity of `prop IN [v1..vn]` as n equality
// matches.
func (c *CostModel) InSel(label catalog.LabelID, prop string, n int) float64 {
	return clampSel(float64(n)*c.EqSel(label, prop), 0)
}

func clampSel(s, floor float64) float64 {
	if s < floor {
		s = floor
	}
	if s > 1 {
		return 1
	}
	return s
}

// Estimate is the binder's cardinality estimate for a compiled plan —
// surfaced through the service so estimator drift (estimated vs actual
// rows) is observable in production.
type Estimate struct {
	// Rows is the estimated result cardinality before aggregation.
	Rows float64
	// Anchor is the variable the plan's first scan/seek binds.
	Anchor string
}
