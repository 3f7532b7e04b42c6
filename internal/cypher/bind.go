package cypher

import (
	"fmt"
	"math"

	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Compile parses and binds a Cypher query against a catalog, producing a
// physical plan for the GES engine (any variant) or the volcano engine.
// It is the binder's walk run without statistics — anchored at the first
// labelled node, relationships in written order and direction — which the
// oracles compare against; frontends prepare queries through Cache.Prepare,
// which lets the cost model shape them.
func Compile(src string, cat *catalog.Catalog) (plan.Plan, error) {
	c, err := CompileWith(src, cat, Options{})
	if err != nil {
		return nil, err
	}
	return c.Plan, nil
}

// Options configures compilation.
type Options struct {
	// Cost is the statistics-driven cost model; nil (no statistics
	// snapshot published yet) estimates every scan, seek, hop and filter
	// as 1, so ties bind the pattern as written.
	Cost *plan.CostModel
	// Params carries the values for $k placeholders in the query text
	// (slot k = Params[k-1]), as produced by Normalize. The binder uses
	// them for selectivity estimation and id()-seek detection; the plan
	// skeleton keeps the slots, so it can be cached and bound per request
	// (Cache.Prepare).
	Params []vector.Value
}

// Compiled couples a physical plan with the binder's cardinality estimate.
type Compiled struct {
	Plan plan.Plan
	Est  plan.Estimate
}

// CompileWith parses and binds a query under the given options. The binder
// picks the scan anchor, orients every Expand and orders the frontier by
// estimated cardinality; the chosen anchor also becomes the f-Tree root,
// minimizing de-factoring under the highest-fanout prefix. Without a cost
// model every estimate ties and the pattern binds as written. Every shape
// returns identical results.
func CompileWith(src string, cat *catalog.Catalog, opts Options) (*Compiled, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	b := &binder{
		cat:       cat,
		bound:     map[string]bool{},
		labels:    map[string]catalog.LabelID{},
		projected: map[string]bool{},
		cost:      opts.Cost,
		params:    opts.Params,
		rows:      1,
	}
	for i := range q.Matches {
		if err := b.bindMatchCosted(&q.Matches[i], i == 0); err != nil {
			return nil, err
		}
	}
	if err := b.bindReturn(&q.Return); err != nil {
		return nil, err
	}
	// Cyclic subpatterns with >= 2 edges constraining one new vertex bind as
	// Expand + ExpandInto chains; lower them to worst-case-optimal multiway
	// intersections.
	return &Compiled{
		Plan: plan.LowerWCOJ(b.plan),
		Est:  plan.Estimate{Rows: b.rows, Anchor: b.anchor},
	}, nil
}

// binder carries binding state.
type binder struct {
	cat       *catalog.Catalog
	plan      plan.Plan
	bound     map[string]bool            // pattern variables bound so far
	labels    map[string]catalog.LabelID // var -> label (AnyLabel when free)
	projected map[string]bool            // canonical columns already projected

	cost   *plan.CostModel // nil = no statistics: every estimate ties
	params []vector.Value  // $k slot values (may be empty)
	rows   float64         // running cardinality estimate
	anchor string          // first clause's chosen anchor variable
}

func (b *binder) labelOf(n NodePat) (catalog.LabelID, error) {
	if n.Label == "" {
		if l, ok := b.labels[n.Var]; ok {
			return l, nil
		}
		return storage.AnyLabel, nil
	}
	l, ok := b.cat.Label(n.Label)
	if !ok {
		return 0, fmt.Errorf("cypher: unknown label %q", n.Label)
	}
	if prev, seen := b.labels[n.Var]; seen && prev != l && prev != storage.AnyLabel {
		return 0, fmt.Errorf("cypher: variable %q bound to conflicting labels", n.Var)
	}
	b.labels[n.Var] = l
	return l, nil
}

// idSeek is an extracted `id(v) = <int>` conjunct: an inline external id,
// or a parameter slot when the literal was normalized out (slot > 0; the
// value, when available, still fills ext for estimation).
type idSeek struct {
	ext  int64
	slot int
}

// seekLit accepts an integer literal or an integer-valued parameter as the
// right-hand side of an id() seek.
func (b *binder) seekLit(e Expr) (idSeek, bool) {
	lit, ok := e.(Lit)
	if !ok {
		return idSeek{}, false
	}
	if lit.Param > 0 {
		if lit.Param <= len(b.params) {
			v := b.params[lit.Param-1]
			if v.Kind != vector.KindInt64 {
				return idSeek{}, false
			}
			return idSeek{ext: v.I, slot: lit.Param}, true
		}
		// No values supplied (skeleton-only compile): keep the slot, the
		// executor binds it per request.
		return idSeek{slot: lit.Param}, true
	}
	if lit.Kind != LitInt {
		return idSeek{}, false
	}
	return idSeek{ext: lit.I}, true
}

// canonical returns the engine column name of a simple reference.
func canonical(e Expr) (string, bool) {
	switch n := e.(type) {
	case PropRef:
		return n.Var + "." + n.Prop, true
	case IDRef:
		return "id(" + n.Var + ")", true
	}
	return "", false
}

// collectRefs appends every property/id reference in the expression.
func collectRefs(e Expr, dst []Expr) []Expr {
	switch n := e.(type) {
	case PropRef, IDRef:
		return append(dst, e)
	case Bin:
		return collectRefs(n.R, collectRefs(n.L, dst))
	case Not:
		return collectRefs(n.X, dst)
	case InList:
		return collectRefs(n.X, dst)
	case StrPred:
		return collectRefs(n.L, dst)
	}
	return dst
}

// ensureProjections emits ProjectProps for every reference not yet
// projected.
func (b *binder) ensureProjections(exprs ...Expr) error {
	var specs []op.ProjSpec
	for _, e := range exprs {
		if e == nil {
			continue
		}
		for _, ref := range collectRefs(e, nil) {
			name, _ := canonical(ref)
			if b.projected[name] {
				continue
			}
			switch r := ref.(type) {
			case PropRef:
				if !b.bound[r.Var] {
					return fmt.Errorf("cypher: unknown variable %q", r.Var)
				}
				specs = append(specs, op.ProjSpec{Var: r.Var, Prop: r.Prop, As: name})
			case IDRef:
				if !b.bound[r.Var] {
					return fmt.Errorf("cypher: unknown variable %q", r.Var)
				}
				specs = append(specs, op.ProjSpec{Var: r.Var, As: name, ExtID: true})
			}
			b.projected[name] = true
		}
	}
	if len(specs) > 0 {
		b.plan = append(b.plan, &op.ProjectProps{Specs: specs})
	}
	return nil
}

// toExpr lowers an AST expression to an engine expression over canonical
// column names.
func (b *binder) toExpr(e Expr) (expr.Expr, error) {
	switch n := e.(type) {
	case PropRef, IDRef:
		name, _ := canonical(n)
		return expr.C(name), nil
	case Lit:
		if n.Param > 0 {
			// Placeholder literal: the plan skeleton carries the slot;
			// plan.BindParams substitutes the request's value before
			// execution.
			return expr.Param{Idx: n.Param - 1}, nil
		}
		return expr.Lit{Val: litValue(n)}, nil
	case Bin:
		l, err := b.toExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := b.toExpr(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "=":
			return expr.Eq(l, r), nil
		case "<>":
			return expr.Ne(l, r), nil
		case "<":
			return expr.Lt(l, r), nil
		case "<=":
			return expr.Le(l, r), nil
		case ">":
			return expr.Gt(l, r), nil
		case ">=":
			return expr.Ge(l, r), nil
		case "AND":
			return expr.And{L: l, R: r}, nil
		case "OR":
			return expr.Or{L: l, R: r}, nil
		case "+":
			return expr.Arith{Op: expr.Add, L: l, R: r}, nil
		case "-":
			return expr.Arith{Op: expr.Sub, L: l, R: r}, nil
		case "*":
			return expr.Arith{Op: expr.Mul, L: l, R: r}, nil
		case "/":
			return expr.Arith{Op: expr.Div, L: l, R: r}, nil
		}
		return nil, fmt.Errorf("cypher: unsupported operator %q", n.Op)
	case Not:
		x, err := b.toExpr(n.X)
		if err != nil {
			return nil, err
		}
		return expr.Not{X: x}, nil
	case InList:
		x, err := b.toExpr(n.X)
		if err != nil {
			return nil, err
		}
		list := make([]vector.Value, len(n.List))
		for i, l := range n.List {
			list[i] = b.litValue(l)
		}
		return expr.In{X: x, List: list}, nil
	case StrPred:
		l, err := b.toExpr(n.L)
		if err != nil {
			return nil, err
		}
		var o expr.StrOp
		switch n.Op {
		case "CONTAINS":
			o = expr.Contains
		case "STARTS":
			o = expr.StartsWith
		case "ENDS":
			o = expr.EndsWith
		}
		return expr.StrPred{Op: o, L: l, R: n.R}, nil
	case VarRef:
		return nil, fmt.Errorf("cypher: bare variable %q cannot appear in expressions; use %s.<prop> or id(%s)", n.Var, n.Var, n.Var)
	}
	return nil, fmt.Errorf("cypher: unsupported expression %T", e)
}

func litValue(l Lit) vector.Value {
	switch l.Kind {
	case LitInt:
		return vector.Int64(l.I)
	case LitFloat:
		return vector.Float64(l.F)
	case LitString:
		return vector.String_(l.S)
	default:
		return vector.Bool(l.B)
	}
}

// litValue resolves a possibly-parameterized literal. IN-lists bake their
// values into the compiled plan, so hand-written $k inside them resolves at
// bind time (Normalize never parameterizes inside brackets, keeping cached
// skeletons value-free there).
func (b *binder) litValue(l Lit) vector.Value {
	if l.Param > 0 && l.Param <= len(b.params) {
		return b.params[l.Param-1]
	}
	return litValue(l)
}

// bindReturn lowers projection, aggregation, ordering and pagination.
func (b *binder) bindReturn(r *ReturnClause) error {
	if len(r.Items) == 0 {
		return fmt.Errorf("cypher: RETURN needs at least one item")
	}
	// Project every referenced attribute.
	var needed []Expr
	for _, it := range r.Items {
		if it.Expr != nil {
			needed = append(needed, it.Expr)
		}
	}
	for _, o := range r.OrderBy {
		if _, isVar := o.Expr.(VarRef); !isVar {
			needed = append(needed, o.Expr)
		}
	}
	if err := b.ensureProjections(needed...); err != nil {
		return err
	}

	hasAgg := false
	for _, it := range r.Items {
		if it.Agg != AggNone {
			hasAgg = true
		}
	}

	// outName: the column each return item occupies before renaming.
	outNames := make([]string, len(r.Items))
	var renFrom, renTo []string
	for i, it := range r.Items {
		name := it.Alias
		canon := ""
		if it.Expr != nil {
			if c, ok := canonical(it.Expr); ok {
				canon = c
			}
		}
		if name == "" {
			if canon == "" {
				name = fmt.Sprintf("expr%d", i)
			} else {
				name = canon
			}
		}
		switch {
		case it.Agg != AggNone:
			outNames[i] = name // aggregates emit the alias directly
		case canon != "":
			outNames[i] = canon
			if name != canon {
				renFrom = append(renFrom, canon)
				renTo = append(renTo, name)
			}
		default:
			// Computed item: materialize via ProjectExpr under the final
			// name.
			ce, err := b.toExpr(it.Expr)
			if err != nil {
				return err
			}
			b.plan = append(b.plan, &op.ProjectExpr{Expr: ce, As: name, Kind: b.kindOf(it.Expr)})
			b.projected[name] = true
			outNames[i] = name
		}
	}

	// resolveOrderCol maps an ORDER BY expression to an output column name.
	resolveOrderCol := func(e Expr, afterRename bool) (string, error) {
		if v, ok := e.(VarRef); ok {
			// Alias reference.
			for i, it := range r.Items {
				if it.Alias == v.Var {
					if it.Agg != AggNone || afterRename {
						return v.Var, nil
					}
					return outNames[i], nil
				}
			}
			return "", fmt.Errorf("cypher: ORDER BY references unknown alias %q", v.Var)
		}
		if c, ok := canonical(e); ok {
			return c, nil
		}
		return "", fmt.Errorf("cypher: ORDER BY supports aliases, properties and id() only")
	}

	if hasAgg {
		var groupBy []string
		var aggs []op.AggSpec
		for i, it := range r.Items {
			if it.Agg == AggNone {
				groupBy = append(groupBy, outNames[i])
				continue
			}
			spec := op.AggSpec{As: outNames[i]}
			switch it.Agg {
			case AggCount:
				spec.Func = op.Count
			case AggCountDistinct:
				spec.Func = op.CountDistinct
			case AggSum:
				spec.Func = op.Sum
			case AggMin:
				spec.Func = op.Min
			case AggMax:
				spec.Func = op.Max
			case AggAvg:
				spec.Func = op.Avg
			}
			if it.Expr != nil {
				c, ok := canonical(it.Expr)
				if !ok {
					return fmt.Errorf("cypher: aggregate arguments must be properties or id()")
				}
				spec.Arg = c
				if err := spec.CheckArg(b.kindOf(it.Expr)); err != nil {
					return fmt.Errorf("cypher: %w", err)
				}
			}
			aggs = append(aggs, spec)
		}
		b.plan = append(b.plan, &op.Aggregate{GroupBy: groupBy, Aggs: aggs})
	} else if r.Distinct {
		b.plan = append(b.plan, &op.Distinct{Cols: outNames})
	}

	if len(r.OrderBy) > 0 {
		keys := make([]op.SortKey, len(r.OrderBy))
		for i, o := range r.OrderBy {
			col, err := resolveOrderCol(o.Expr, false)
			if err != nil {
				return err
			}
			keys[i] = op.SortKey{Col: col, Desc: o.Desc}
		}
		ob := &op.OrderBy{Keys: keys, Cols: outNames}
		if r.Limit > 0 && r.Skip <= 0 {
			ob.Limit = r.Limit
		}
		b.plan = append(b.plan, ob)
		// OrderBy's Limit 0 means "sort everything", so LIMIT 0 — like any
		// SKIP — is a Limit of its own.
		if r.Skip > 0 || (r.Limit >= 0 && ob.Limit == 0) {
			b.plan = append(b.plan, pagination(r))
		}
	} else if r.Skip >= 0 || r.Limit >= 0 {
		// The limit is the de-factor: it enumerates only the returned
		// columns and stops after SKIP + LIMIT tuples.
		lm := pagination(r)
		lm.Cols = outNames
		b.plan = append(b.plan, lm)
	} else {
		b.plan = append(b.plan, &op.Defactor{Cols: outNames})
	}
	if len(renFrom) > 0 {
		b.plan = append(b.plan, &op.Rename{From: renFrom, To: renTo})
	}
	return nil
}

func pagination(r *ReturnClause) *op.Limit {
	limit := r.Limit
	if limit < 0 {
		limit = math.MaxInt32
	}
	skip := r.Skip
	if skip < 0 {
		skip = 0
	}
	return &op.Limit{N: limit, Skip: skip}
}

// kindOf types a computed RETURN expression: arithmetic is float when an
// operand is (a float literal, parameter or property), a date when its left
// operand is one, an integer otherwise.
func (b *binder) kindOf(e Expr) vector.Kind {
	switch n := e.(type) {
	case PropRef:
		l := b.labels[n.Var]
		defs, _ := b.cat.PropLabels(n.Prop)
		for _, d := range defs {
			if l == storage.AnyLabel || d.Label == l {
				return d.Kind
			}
		}
		return vector.KindInt64
	case Lit:
		return b.litValue(n).Kind
	case Bin:
		switch n.Op {
		case "+", "-", "*", "/":
			l, r := b.kindOf(n.L), b.kindOf(n.R)
			switch {
			case l == vector.KindFloat64 || r == vector.KindFloat64:
				return vector.KindFloat64
			case l == vector.KindDate:
				return vector.KindDate
			}
		}
	}
	return vector.KindInt64
}
