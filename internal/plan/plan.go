// Package plan represents physical execution plans — linear chains of
// operators — and implements the optimizer's operator-fusion rewrite rules
// of §4.3: VertexExpand (seek+expand), FilterPushDown (project+filter folded
// into the expand), and AggregateProjectTop (aggregate+order-by+limit). Five
// more keep the fused plan from building what its result discards: an expand
// from the group key only counted runs once per group (Aggregate.Leaves); a
// projection only returned is gathered after the top-k cut (OrderBy.Late); a
// group key that is a single-label vertex's id groups by VID
// (Aggregate.KeyVar); groups only a later sort reads are not sorted
// (Aggregate.Unordered); and an expand a top-k reads by a clustering key
// keeps what it returns (Expand.Newest).
package plan

import (
	"slices"
	"strings"

	"ges/internal/op"
)

// Plan is a linear physical plan, executed front to back.
type Plan []op.Operator

// String renders the operator chain.
func (p Plan) String() string {
	names := make([]string, len(p))
	for i, o := range p {
		names[i] = o.Name()
	}
	return strings.Join(names, " -> ")
}

// reads reports whether an operator reads column col from its input. An
// operator that reads every column — a full de-factor, a full-schema sort,
// an operator this list does not know — reads col whatever it is.
func reads(o op.Operator, col string) bool {
	switch n := o.(type) {
	case *op.Expand:
		return n.From == col
	case *op.VarLengthExpand:
		return n.From == col
	case *op.NodeScan:
		return n.From == col
	case *op.ExpandInto:
		return n.From == col || n.To == col
	case *op.ExpandIntersect:
		return slices.ContainsFunc(n.Sides, func(s op.IntersectSide) bool { return s.Var == col })
	case *op.ProjectProps:
		return slices.ContainsFunc(n.Specs, func(s op.ProjSpec) bool { return s.Var == col })
	case *op.ProjectExpr:
		return slices.Contains(n.Expr.Columns(nil), col)
	case *op.Filter:
		return slices.Contains(n.Pred.Columns(nil), col)
	case *op.OrderBy:
		// A late column is the OrderBy's own output: it reads the column's
		// variable instead.
		if n.Cols == nil || sortsBy(n.Keys, col) || slices.ContainsFunc(n.Late, func(s op.ProjSpec) bool { return s.Var == col }) {
			return true
		}
		return slices.Contains(n.Cols, col) && !slices.ContainsFunc(n.Late, func(s op.ProjSpec) bool { return s.As == col })
	case *op.Aggregate:
		return aggReads(n, col)
	case *op.AggregateProjectTop:
		return aggReads(&n.Aggregate, col) || sortsBy(n.Keys, col)
	case *op.PatternCount:
		return n.From == col || referencedLater(n.Path, col)
	case *op.Distinct:
		return n.Cols == nil || slices.Contains(n.Cols, col)
	case *op.Defactor:
		return n.Cols == nil || slices.Contains(n.Cols, col)
	case *op.Limit:
		// Without Cols a Limit passes its input through; it follows the
		// operator that narrowed it.
		return slices.Contains(n.Cols, col)
	case *op.Rename:
		// A rename passes every column through; only the renamed ones are
		// read under another name later.
		return slices.Contains(n.From, col)
	}
	return true
}

// aggReads reports whether an aggregate reads col: its group key — the key
// variable when it groups by VID — or an argument.
func aggReads(g *op.Aggregate, col string) bool {
	if g.KeyVar == col || (g.KeyVar == "" && slices.Contains(g.GroupBy, col)) {
		return true
	}
	return slices.ContainsFunc(g.Aggs, func(a op.AggSpec) bool { return a.Arg == col })
}

// sortsBy reports whether col is one of the sort keys.
func sortsBy(keys []op.SortKey, col string) bool {
	return slices.ContainsFunc(keys, func(k op.SortKey) bool { return k.Col == col })
}

// referencedLater reports whether any operator in rest reads col.
func referencedLater(rest Plan, col string) bool {
	for _, o := range rest {
		if reads(o, col) {
			return true
		}
	}
	return false
}

// anyReferencedLater reports whether any of cols is read by rest.
func anyReferencedLater(rest Plan, cols []string) bool {
	for _, c := range cols {
		if referencedLater(rest, c) {
			return true
		}
	}
	return false
}
