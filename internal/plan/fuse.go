package plan

import (
	"ges/internal/expr"
	"ges/internal/op"
)

// Fuse applies the operator-fusion rewrite rules until a fixpoint. The input
// plan is not modified.
func Fuse(p Plan) Plan {
	out := append(Plan(nil), p...)
	for {
		next, changed := fuseOnce(out)
		if !changed {
			return next
		}
		out = next
	}
}

func fuseOnce(p Plan) (Plan, bool) {
	// FilterPushDown runs first: it matches on a plain Expand, which the
	// SeekExpand rule would otherwise consume.
	if q, ok := fuseFilterPushDown(p); ok {
		return q, true
	}
	if q, ok := fuseSeekExpand(p); ok {
		return q, true
	}
	if q, ok := fuseAggregateProjectTop(p); ok {
		return q, true
	}
	return p, false
}

// fuseSeekExpand rewrites [NodeByIdSeek v, Expand from v] into the fused
// SeekExpand when the seek variable is never referenced downstream — the
// paper's VertexExpand fusion.
func fuseSeekExpand(p Plan) (Plan, bool) {
	for i := 0; i+1 < len(p); i++ {
		seek, ok := p[i].(*op.NodeByIdSeek)
		if !ok {
			continue
		}
		ex, ok := p[i+1].(*op.Expand)
		if !ok || ex.From != seek.Var {
			continue
		}
		// Only plain expands fuse; predicate-carrying expands keep their
		// own shape.
		if ex.VertexPred != nil || len(ex.EdgeProps) > 0 {
			continue
		}
		if referencedLater(p[i+2:], seek.Var) {
			continue
		}
		fused := &op.SeekExpand{
			Label:    seek.Label,
			ExtID:    seek.ExtID,
			To:       ex.To,
			Et:       ex.Et,
			Dir:      ex.Dir,
			DstLabel: ex.DstLabel,
		}
		q := append(Plan(nil), p[:i]...)
		q = append(q, fused)
		q = append(q, p[i+2:]...)
		return q, true
	}
	return p, false
}

// fuseFilterPushDown rewrites [Expand →v, ProjectProps(v.*), Filter(pred
// over those projections)] so the predicate evaluates inside the Expand and
// rejected neighbors are never materialized. The projection survives only if
// a later operator still reads its columns.
func fuseFilterPushDown(p Plan) (Plan, bool) {
	for i := 0; i+2 < len(p); i++ {
		ex, ok := p[i].(*op.Expand)
		if !ok || ex.VertexPred != nil {
			continue
		}
		proj, ok := p[i+1].(*op.ProjectProps)
		if !ok {
			continue
		}
		flt, ok := p[i+2].(*op.Filter)
		if !ok {
			continue
		}
		// Every projected spec must target the expand output variable.
		propOf := make(map[string]string, len(proj.Specs))
		allOnTo := true
		for _, s := range proj.Specs {
			if s.Var != ex.To {
				allOnTo = false
				break
			}
			if s.ExtID {
				propOf[s.As] = op.ExtIDProp
			} else {
				propOf[s.As] = s.Prop
			}
		}
		if !allOnTo {
			continue
		}
		// The predicate must reference only projected columns.
		predOK := true
		for _, c := range flt.Pred.Columns(nil) {
			if _, ok := propOf[c]; !ok {
				predOK = false
				break
			}
		}
		if !predOK {
			continue
		}
		rewritten := rewriteCols(flt.Pred, propOf)
		fusedExpand := *ex
		fusedExpand.VertexPred = op.VertexPropPred(rewritten)

		q := append(Plan(nil), p[:i]...)
		q = append(q, &fusedExpand)
		// Keep the projection only when its outputs are still consumed.
		var projected []string
		for _, s := range proj.Specs {
			projected = append(projected, s.As)
		}
		if anyReferencedLater(p[i+3:], projected) {
			q = append(q, proj)
		}
		q = append(q, p[i+3:]...)
		return q, true
	}
	return p, false
}

// rewriteCols returns a copy of e with every column reference renamed
// through the mapping (identity when absent).
func rewriteCols(e expr.Expr, rename map[string]string) expr.Expr {
	switch n := e.(type) {
	case expr.Col:
		if to, ok := rename[n.Name]; ok {
			return expr.Col{Name: to}
		}
		return n
	case expr.Cmp:
		return expr.Cmp{Op: n.Op, L: rewriteCols(n.L, rename), R: rewriteCols(n.R, rename)}
	case expr.And:
		return expr.And{L: rewriteCols(n.L, rename), R: rewriteCols(n.R, rename)}
	case expr.Or:
		return expr.Or{L: rewriteCols(n.L, rename), R: rewriteCols(n.R, rename)}
	case expr.Not:
		return expr.Not{X: rewriteCols(n.X, rename)}
	case expr.Arith:
		return expr.Arith{Op: n.Op, L: rewriteCols(n.L, rename), R: rewriteCols(n.R, rename)}
	case expr.In:
		return expr.In{X: rewriteCols(n.X, rename), List: n.List}
	case expr.StrPred:
		return expr.StrPred{Op: n.Op, L: rewriteCols(n.L, rename), R: n.R}
	default:
		return e
	}
}

// fuseAggregateProjectTop rewrites [Aggregate, OrderBy(limit k)] and
// [Aggregate, OrderBy, Limit] into the single fused operator.
func fuseAggregateProjectTop(p Plan) (Plan, bool) {
	for i := 0; i+1 < len(p); i++ {
		agg, ok := p[i].(*op.Aggregate)
		if !ok {
			continue
		}
		ob, ok := p[i+1].(*op.OrderBy)
		if !ok {
			continue
		}
		limit := ob.Limit
		consumed := 2
		if limit == 0 && i+2 < len(p) {
			// A Limit 0 stays: the fused operator's 0 means "keep every group".
			if lm, ok := p[i+2].(*op.Limit); ok && lm.Skip == 0 && lm.N > 0 && lm.Cols == nil {
				limit = lm.N
				consumed = 3
			}
		}
		fused := &op.AggregateProjectTop{
			GroupBy: agg.GroupBy,
			Aggs:    agg.Aggs,
			Keys:    ob.Keys,
			Limit:   limit,
		}
		q := append(Plan(nil), p[:i]...)
		q = append(q, fused)
		// The fused operator emits groupBy ++ aggregate columns; a sort
		// that narrowed or reordered its output keeps doing so via an
		// explicit projection.
		if ob.Cols != nil && !sameCols(ob.Cols, aggOutput(agg)) {
			q = append(q, &op.Defactor{Cols: ob.Cols})
		}
		q = append(q, p[i+consumed:]...)
		return q, true
	}
	return p, false
}

// aggOutput lists the column names an Aggregate emits, in order.
func aggOutput(a *op.Aggregate) []string {
	out := append([]string(nil), a.GroupBy...)
	for _, s := range a.Aggs {
		out = append(out, s.As)
	}
	return out
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
