package plan

import (
	"slices"

	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Fuse applies the operator-fusion rewrite rules until a fixpoint. Each
// pattern count's path is fused once, as a plan of its own. The input plan
// is not modified.
func Fuse(p Plan) Plan {
	out := slices.Clone(p)
	for i, o := range out {
		if pc, ok := o.(*op.PatternCount); ok {
			c := *pc
			c.Path = Fuse(pc.Path)
			out[i] = &c
		}
	}
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
	// After the seek fusion: a seek's one row expands by SeekExpand.
	if q, ok := fuseNewest(p); ok {
		return q, true
	}
	if q, ok := fuseLateProject(p); ok {
		return q, true
	}
	// Groups keyed by VID first: only a leaf on the key runs per group.
	if q, ok := fuseGroupByVID(p); ok {
		return q, true
	}
	if q, ok := fuseCountLeaf(p); ok {
		return q, true
	}
	if q, ok := fuseAggregateProjectTop(p); ok {
		return q, true
	}
	if q, ok := fuseUnordered(p); ok {
		return q, true
	}
	return p, false
}

// fuseNewest is the run cut and merge (op.Newest): the Expand binding the node
// an OrderBy(limit k)'s first key, descending, is projected from — past only
// projections — keeps just the neighbours the sort can return, when every
// operator before it but the first keeps the f-Tree. A fused filter may only
// bound the key from above by a constant; the cut applies it too.
func fuseNewest(p Plan) (Plan, bool) {
	for j, o := range p {
		ob, ok := o.(*op.OrderBy)
		if !ok || ob.Limit <= 0 || len(ob.Keys) == 0 || !ob.Keys[0].Desc {
			continue
		}
		var spec *op.ProjSpec
		i := j - 1
		for ; i >= 0; i-- {
			proj, ok := p[i].(*op.ProjectProps)
			if !ok {
				break
			}
			if k := slices.IndexFunc(proj.Specs, func(s op.ProjSpec) bool { return s.As == ob.Keys[0].Col }); k >= 0 {
				spec = &proj.Specs[k]
			}
		}
		if spec == nil || spec.ExtID || i < 1 || slices.ContainsFunc(p[1:i], func(o op.Operator) bool { return !keepsColumns(o) }) {
			continue
		}
		cut := op.Newest{K: ob.Limit, Key: spec.Prop}
		if ex, ok := p[i].(*op.Expand); ok && ex.To == spec.Var && ex.Newest == nil &&
			len(ex.EdgeProps) == 0 && (ex.VertexPred == nil || boundsKey(&cut, ex.VertexPred)) {
			c := *ex
			c.Newest = &cut
			q := slices.Clone(p)
			q[i] = &c
			return q, true
		}
	}
	return p, false
}

// boundsKey copies pred into the cut if it only bounds the key from above.
func boundsKey(cut *op.Newest, pred *op.VertexPred) bool {
	c, ok := pred.Expr().(expr.Cmp)
	lit, isLit := c.R.(expr.Lit)
	if !ok || !isLit || (c.Op != expr.LT && c.Op != expr.LE) || c.L != (expr.Col{Name: cut.Key}) ||
		(lit.Val.Kind != vector.KindInt64 && lit.Val.Kind != vector.KindDate) {
		return false
	}
	cut.Bounded, cut.Inclusive, cut.Below = true, c.Op == expr.LE, lit.Val.I
	return true
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
		// Only plain expands fuse; predicate-carrying expands keep their own
		// shape.
		if !plainExpand(ex) {
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
		q := append(make(Plan, 0, len(p)), p[:i]...)
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

		q := append(make(Plan, 0, len(p)), p[:i]...)
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
		// An OrderBy with late columns gathers them for the groups it keeps
		// (groups by a VID column); the fused operator would not.
		ob, ok := p[i+1].(*op.OrderBy)
		if !ok || len(ob.Late) > 0 {
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
		fused := &op.AggregateProjectTop{Aggregate: *agg, Keys: ob.Keys, Limit: limit}
		fused.Unordered = sortsEvery(ob.Keys, agg.GroupBy)
		q := append(make(Plan, 0, len(p)), p[:i]...)
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

// keepsColumns reports whether o passes every column of its input through,
// so a column read after it may have been produced before it.
func keepsColumns(o op.Operator) bool {
	switch o.(type) {
	case *op.Expand, *op.VarLengthExpand, *op.ExpandInto, *op.ExpandIntersect,
		*op.ProjectProps, *op.ProjectExpr, *op.Filter, *op.PatternCount:
		return true
	}
	return false
}

// fuseLateProject (gather after the cut) moves the ProjectProps specs that
// an OrderBy(limit k) outputs but nothing before it reads — no filter, sort
// key or expression — into the OrderBy, which gathers them for its ≤ k kept
// tuples only. Only operators that keep every column may lie between.
func fuseLateProject(p Plan) (Plan, bool) {
	for j, o := range p {
		ob, ok := o.(*op.OrderBy)
		if !ok || ob.Limit <= 0 || ob.Cols == nil {
			continue
		}
		var q Plan
		late := slices.Clip(ob.Late)
		next := j // the first operator of p not yet in q
		for i := j - 1; i >= 0 && keepsColumns(p[i]); i-- {
			proj, ok := p[i].(*op.ProjectProps)
			if !ok || !slices.ContainsFunc(proj.Specs, func(s op.ProjSpec) bool { return isLate(p[i+1:j], ob, s) }) {
				continue
			}
			var keep []op.ProjSpec
			for _, s := range proj.Specs {
				if isLate(p[i+1:j], ob, s) {
					late = append(late, s)
				} else {
					keep = append(keep, s)
				}
			}
			// q holds the operators after i, back to front.
			for k := next - 1; k > i; k-- {
				q = append(q, p[k])
			}
			if keep != nil {
				q = append(q, &op.ProjectProps{Specs: keep})
			}
			next = i
		}
		if len(late) == len(ob.Late) {
			continue
		}
		out := append(make(Plan, 0, len(p)), p[:next]...)
		for k := len(q) - 1; k >= 0; k-- {
			out = append(out, q[k])
		}
		fused := *ob
		fused.Late = late
		return append(append(out, &fused), p[j+1:]...), true
	}
	return p, false
}

// isLate reports whether ob may gather spec after the cut: ob outputs it,
// and neither ob's keys nor the operators between read it.
func isLate(between Plan, ob *op.OrderBy, spec op.ProjSpec) bool {
	return slices.Contains(ob.Cols, spec.As) && !sortsBy(ob.Keys, spec.As) && !referencedLater(between, spec.As)
}

// fuseCountLeaf moves an Expand from an aggregate's key variable into the
// aggregate (Aggregate.Leaves) when nothing reads its destination and the
// aggregate — past only projections and filters — folds only aggregates a
// row's multiplicity scales but does not change in kind: COUNT, COUNT
// DISTINCT, MIN and MAX. The expand counts the same for every row of a
// group, so it runs once per group instead. SUM and AVG, which the leaf's
// runs would have to scale, are left alone.
func fuseCountLeaf(p Plan) (Plan, bool) {
	for i, o := range p {
		ex, ok := o.(*op.Expand)
		if !ok || !plainExpand(ex) {
			continue
		}
		j := i + 1
		for j < len(p) && nodeLocal(p[j]) {
			j++
		}
		if j == len(p) || referencedLater(p[i+1:], ex.To) {
			continue
		}
		g := aggregateOf(p[j])
		if g == nil || ex.From != g.KeyVar ||
			slices.ContainsFunc(g.Aggs, func(a op.AggSpec) bool { return a.Func == op.Sum || a.Func == op.Avg }) {
			continue
		}
		keyed := *g
		keyed.Leaves = append(slices.Clip(g.Leaves), ex)
		q := slices.Clone(p)
		q[j] = withAggregate(p[j], keyed)
		return slices.Delete(q, i, i+1), true
	}
	return p, false
}

// fuseUnordered marks an Aggregate whose group order nothing observes
// (Aggregate.Unordered): past operators that pass rows through in order, an
// OrderBy sorts by every group column, so distinct groups never tie and the
// sort alone decides their order. A float group column, which could tie,
// keeps the aggregate sorting when it runs.
func fuseUnordered(p Plan) (Plan, bool) {
	for j := 0; j+1 < len(p); j++ {
		g, ok := p[j].(*op.Aggregate)
		if !ok || g.Unordered || len(g.GroupBy) == 0 {
			continue
		}
		k := j + 1
		for k+1 < len(p) && keepsRows(p[k], g.GroupBy) {
			k++
		}
		if ob, ok := p[k].(*op.OrderBy); !ok || !sortsEvery(ob.Keys, g.GroupBy) {
			continue
		}
		u := *g
		u.Unordered = true
		q := slices.Clone(p)
		q[j] = &u
		return q, true
	}
	return p, false
}

// keepsRows reports whether o passes its input rows on in order, each row
// once, without writing any of cols.
func keepsRows(o op.Operator, cols []string) bool {
	switch n := o.(type) {
	case *op.Filter:
		return true
	case *op.ProjectExpr:
		return !slices.Contains(cols, n.As)
	}
	return false
}

// sortsEvery reports whether every one of cols is a sort key: rows that
// differ in any of them never tie.
func sortsEvery(keys []op.SortKey, cols []string) bool {
	return !slices.ContainsFunc(cols, func(c string) bool { return !sortsBy(keys, c) })
}

// nodeLocal reports whether o only annotates the rows it is given: a
// projection or a filter.
func nodeLocal(o op.Operator) bool {
	switch o.(type) {
	case *op.ProjectProps, *op.ProjectExpr, *op.Filter:
		return true
	}
	return false
}

// fuseGroupByVID keys an aggregate whose lone group column is id(v), for a
// variable v of one label, by v's VID (Aggregate.KeyVar): ids are unique
// within a label, so the groups are the same, and each group's id is read
// once. The id projection goes when nothing else reads it. A variable of
// several labels (AnyLabel) stays keyed by id: ids may collide across
// labels.
func fuseGroupByVID(p Plan) (Plan, bool) {
	for j, o := range p {
		g := aggregateOf(o)
		if g == nil || g.KeyVar != "" || len(g.GroupBy) != 1 {
			continue
		}
		key := g.GroupBy[0]
		for i := j - 1; i >= 0 && keepsColumns(p[i]); i-- {
			proj, ok := p[i].(*op.ProjectProps)
			if !ok {
				continue
			}
			k := slices.IndexFunc(proj.Specs, func(s op.ProjSpec) bool { return s.As == key })
			if k < 0 {
				continue
			}
			s := proj.Specs[k]
			if !s.ExtID || !singleLabel(p[:i], s.Var) {
				break
			}
			keyed := *g
			keyed.KeyVar = s.Var
			q := slices.Clone(p)
			q[j] = withAggregate(o, keyed)
			if !referencedLater(p[i+1:j], key) && !reads(&keyed, key) {
				q[i] = &op.ProjectProps{Specs: slices.Delete(slices.Clone(proj.Specs), k, k+1)}
				if len(proj.Specs) == 1 {
					q = slices.Delete(q, i, i+1)
				}
			}
			return q, true
		}
	}
	return p, false
}

// singleLabel reports whether the operator of p that binds v gives it one
// label; a variable no operator here binds (renamed, from an intersection)
// has none known.
func singleLabel(p Plan, v string) bool {
	for i := len(p) - 1; i >= 0; i-- {
		var to string
		label := storage.AnyLabel
		switch n := p[i].(type) {
		case *op.NodeByIdSeek:
			to, label = n.Var, n.Label
		case *op.NodeScan:
			to, label = n.Var, n.Label
		case *op.SeekExpand:
			to, label = n.To, n.DstLabel
		case *op.Expand:
			to, label = n.To, n.DstLabel
		case *op.VarLengthExpand:
			to, label = n.To, n.DstLabel
		}
		if to == v {
			return label != storage.AnyLabel
		}
	}
	return false
}

// aggregateOf returns the aggregate half of an Aggregate or an
// AggregateProjectTop, or nil.
func aggregateOf(o op.Operator) *op.Aggregate {
	switch n := o.(type) {
	case *op.Aggregate:
		return n
	case *op.AggregateProjectTop:
		return &n.Aggregate
	}
	return nil
}

// withAggregate returns a copy of o, an Aggregate or AggregateProjectTop,
// with the aggregate half g.
func withAggregate(o op.Operator, g op.Aggregate) op.Operator {
	if apt, ok := o.(*op.AggregateProjectTop); ok {
		c := *apt
		c.Aggregate = g
		return &c
	}
	return &g
}
