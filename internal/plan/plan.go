// Package plan represents physical execution plans — linear chains of
// operators — and implements the optimizer's operator-fusion rewrite rules
// of §4.3: VertexExpand (seek+expand), FilterPushDown (project+filter folded
// into the expand), and AggregateProjectTop (aggregate+order-by+limit).
package plan

import (
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

// wildcard marks operators that implicitly reference every column.
const wildcard = "*"

// refs returns the column names an operator reads from its input. The
// wildcard means "everything" (full de-factor, full-schema sorts).
func refs(o op.Operator) []string {
	switch n := o.(type) {
	case *op.Expand:
		return []string{n.From}
	case *op.VarLengthExpand:
		return []string{n.From}
	case *op.ExpandInto:
		return []string{n.From, n.To}
	case *op.ExpandIntersect:
		var out []string
		for _, s := range n.Sides {
			out = append(out, s.Var)
		}
		return out
	case *op.ProjectProps:
		var out []string
		for _, s := range n.Specs {
			out = append(out, s.Var)
		}
		return out
	case *op.ProjectExpr:
		return n.Expr.Columns(nil)
	case *op.Filter:
		return n.Pred.Columns(nil)
	case *op.OrderBy:
		var out []string
		if n.Cols == nil {
			out = append(out, wildcard)
		} else {
			out = append(out, n.Cols...)
		}
		for _, k := range n.Keys {
			out = append(out, k.Col)
		}
		return out
	case *op.Aggregate:
		out := append([]string(nil), n.GroupBy...)
		for _, a := range n.Aggs {
			if a.Arg != "" {
				out = append(out, a.Arg)
			}
		}
		return out
	case *op.AggregateProjectTop:
		out := append([]string(nil), n.GroupBy...)
		for _, a := range n.Aggs {
			if a.Arg != "" {
				out = append(out, a.Arg)
			}
		}
		for _, k := range n.Keys {
			out = append(out, k.Col)
		}
		return out
	case *op.HashJoin:
		return append([]string{}, n.LeftKeys...)
	case *op.Distinct:
		if n.Cols == nil {
			return []string{wildcard}
		}
		return n.Cols
	case *op.Defactor:
		if n.Cols == nil {
			return []string{wildcard}
		}
		return n.Cols
	case *op.Limit:
		// Without Cols a Limit passes its input through; it follows the
		// operator that narrowed it.
		return n.Cols
	default:
		// Unknown operators are assumed to read everything.
		return []string{wildcard}
	}
}

// referencedLater reports whether any operator in rest reads col (or reads
// everything).
func referencedLater(rest Plan, col string) bool {
	for _, o := range rest {
		for _, r := range refs(o) {
			if r == wildcard || r == col {
				return true
			}
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
