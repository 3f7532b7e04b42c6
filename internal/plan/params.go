package plan

import (
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/vector"
)

// BindParams returns the plan with every parameter placeholder replaced by
// the matching literal from params. Operators without parameters are shared
// with the input plan; operators carrying placeholders are shallow-copied,
// so a cached plan skeleton can be re-bound concurrently by many requests.
// It runs once per request (cypher.Cache.Prepare), before fusion, so the
// fused predicates and the vectorized filter fast paths only ever see
// constants.
func BindParams(p Plan, params []vector.Value) Plan {
	out := make(Plan, len(p))
	for i, o := range p {
		out[i] = bindOpParams(o, params)
	}
	return out
}

func bindOpParams(o op.Operator, params []vector.Value) op.Operator {
	switch n := o.(type) {
	case *op.Filter:
		if expr.HasParams(n.Pred) {
			c := *n
			c.Pred = expr.SubstParams(n.Pred, params)
			return &c
		}
	case *op.ProjectExpr:
		if expr.HasParams(n.Expr) {
			c := *n
			c.Expr = expr.SubstParams(n.Expr, params)
			return &c
		}
	case *op.NodeByIdSeek:
		if n.ExtParam > 0 && n.ExtParam <= len(params) {
			c := *n
			c.ExtID = params[n.ExtParam-1].I
			c.ExtParam = 0
			return &c
		}
	}
	return o
}
