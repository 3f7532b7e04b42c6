package cypher

import (
	"fmt"
	"math"

	"ges/internal/catalog"
	"ges/internal/op"
	"ges/internal/storage"
)

// bindMatchCosted lowers one MATCH clause with the cost model driving plan
// shape (DESIGN.md §10). It is the only MATCH walk: without statistics
// (b.cost nil) every scan, seek, hop and filter estimates 1, the strict
// comparisons below keep the first candidate on every tie, and the clause
// binds as written — anchored at its first labelled node, relationships in
// written order and direction — with single-variable filters where their
// variable binds.
//
//   - anchor: among the clause's nodes (or, in continuing clauses, its
//     already-bound ones) the binder picks the start with the smallest
//     estimated cardinality — an id() seek anywhere in the pattern beats
//     any scan, and scans are weighted by label cardinality times the
//     selectivity of the node's own WHERE conjuncts. The anchor becomes
//     the f-Tree root, so the highest-selectivity prefix also minimizes
//     de-factoring.
//   - orientation: the frontier grows by whichever remaining relationship
//     yields the fewest estimated rows; traversing a relationship from its
//     written destination emits Dir.Reverse(), turning a badly-oriented
//     pattern into its cheap mirror image.
//   - pushdown: single-variable WHERE conjuncts filter as soon as their
//     variable binds instead of at clause end, so a selective predicate
//     prunes before fan-out. Results are identical either way — filters
//     are pure and conjunction commutes.
//
// Estimated cardinality accumulates in b.rows for the drift counters.
func (b *binder) bindMatchCosted(m *MatchClause, first bool) error {
	n := len(m.Nodes)
	labels := make([]catalog.LabelID, n)
	for i, nd := range m.Nodes {
		l, err := b.labelOf(nd)
		if err != nil {
			return err
		}
		labels[i] = l
	}
	// A later occurrence of a repeated variable may carry the explicit
	// label; re-resolve so every occurrence sees it.
	for i, nd := range m.Nodes {
		if labels[i] == storage.AnyLabel {
			if l, ok := b.labels[nd.Var]; ok {
				labels[i] = l
			}
		}
	}
	labelOfVar := map[string]catalog.LabelID{}
	for i, nd := range m.Nodes {
		if _, ok := labelOfVar[nd.Var]; !ok || labelOfVar[nd.Var] == storage.AnyLabel {
			labelOfVar[nd.Var] = labels[i]
		}
	}
	ets := make([]catalog.EdgeTypeID, len(m.Rels))
	for j, rel := range m.Rels {
		et, ok := b.cat.EdgeType(rel.Type)
		if !ok {
			return fmt.Errorf("cypher: unknown relationship type %q", rel.Type)
		}
		ets[j] = et
	}

	// Partition the WHERE into single-variable conjunct groups (pushed when
	// the variable binds) and a residual (filtered at clause end).
	perVar := map[string][]Expr{}
	var varOrder []string
	var residual []Expr
	for _, c := range conjuncts(m.Where, nil) {
		vars := refVars(c, nil)
		if len(vars) == 1 {
			v := vars[0]
			if len(perVar[v]) == 0 {
				varOrder = append(varOrder, v)
			}
			perVar[v] = append(perVar[v], c)
		} else {
			residual = append(residual, c)
		}
	}

	// varSel estimates the combined selectivity of a variable's pending
	// conjuncts.
	varSel := func(v string) float64 {
		s := 1.0
		for _, c := range perVar[v] {
			s *= b.conjSel(c, labelOfVar[v])
		}
		return s
	}
	// pushVar filters a newly bound variable's pending conjuncts.
	pushVar := func(v string) error {
		cs := perVar[v]
		if len(cs) == 0 {
			return nil
		}
		pred := andAll(cs)
		if err := b.ensureProjections(pred); err != nil {
			return err
		}
		e, err := b.toExpr(pred)
		if err != nil {
			return err
		}
		b.plan = append(b.plan, &op.Filter{Pred: e})
		b.rows *= varSel(v)
		delete(perVar, v)
		return nil
	}

	// Anchor. Continuing clauses start from whatever is already bound; a
	// first clause picks the cheapest node.
	anyBound := false
	for _, nd := range m.Nodes {
		if b.bound[nd.Var] {
			anyBound = true
			break
		}
	}
	if !anyBound {
		if !first {
			return fmt.Errorf("cypher: MATCH must start from an already-bound variable (%q is new)", m.Nodes[0].Var)
		}
		best, bestCost := -1, math.Inf(1)
		bestSeek, bestHasSeek := idSeek{}, false
		seen := map[string]bool{}
		for i, nd := range m.Nodes {
			if seen[nd.Var] {
				continue
			}
			seen[nd.Var] = true
			if labels[i] == storage.AnyLabel {
				continue // neither seek nor scan can anchor an unlabeled node
			}
			seek, _, hasSeek := b.seekFromConjs(nd.Var, perVar[nd.Var])
			cost := 1.0
			if !hasSeek {
				cost = b.cost.LabelCard(labels[i]) * varSel(nd.Var)
			}
			if cost < bestCost {
				best, bestCost = i, cost
				bestSeek, bestHasSeek = seek, hasSeek
			}
		}
		if best < 0 {
			return fmt.Errorf("cypher: the first node %q needs a label to anchor a scan or an id() seek", m.Nodes[0].Var)
		}
		v := m.Nodes[best].Var
		b.anchor = v
		if bestHasSeek {
			_, ci, _ := b.seekFromConjs(v, perVar[v])
			perVar[v] = append(append([]Expr{}, perVar[v][:ci]...), perVar[v][ci+1:]...)
			b.plan = append(b.plan, &op.NodeByIdSeek{Var: v, Label: labels[best], ExtID: bestSeek.ext, ExtParam: bestSeek.slot})
			b.rows = 1
		} else {
			b.plan = append(b.plan, &op.NodeScan{Var: v, Label: labels[best]})
			b.rows = b.cost.LabelCard(labels[best])
		}
		b.bound[v] = true
		if err := pushVar(v); err != nil {
			return err
		}
	}
	// Conjuncts on variables bound before this clause filter immediately,
	// before any fan-out.
	for _, v := range varOrder {
		if b.bound[v] && len(perVar[v]) > 0 {
			if err := pushVar(v); err != nil {
				return err
			}
		}
	}

	// Greedy frontier: emit whichever remaining relationship yields the
	// fewest estimated rows until the clause's path is consumed.
	done := make([]bool, len(m.Rels))
	for remaining := len(m.Rels); remaining > 0; remaining-- {
		bestJ := -1
		bestRows := math.Inf(1)
		bestRight := false // traverse right-to-left (reverse of written)
		for j, rel := range m.Rels {
			if done[j] {
				continue
			}
			lv, rv := m.Nodes[j].Var, m.Nodes[j+1].Var
			lb, rb := b.bound[lv], b.bound[rv]
			if !lb && !rb {
				continue
			}
			var est float64
			var fromRight bool
			switch {
			case lb && rb:
				// Closure: an intersection semi-join only narrows.
				f := b.fanout(labels[j], ets[j], rel, false, labels[j+1])
				factor := 1.0
				if card := b.cost.LabelCard(labels[j+1]); card > 0 {
					factor = math.Min(1, f/card)
				}
				est = b.rows * factor
			case lb:
				f := b.fanout(labels[j], ets[j], rel, false, labels[j+1])
				est = b.rows * f * varSel(rv)
			default:
				fromRight = true
				f := b.fanout(labels[j+1], ets[j], rel, true, labels[j])
				est = b.rows * f * varSel(lv)
			}
			if est < bestRows {
				bestJ, bestRows, bestRight = j, est, fromRight
			}
		}
		if bestJ < 0 {
			// A linear path with one bound node always has a frontier
			// relationship; defensive only.
			return fmt.Errorf("cypher: disconnected pattern in MATCH")
		}
		rel := m.Rels[bestJ]
		lv, rv := m.Nodes[bestJ].Var, m.Nodes[bestJ+1].Var
		varLen := rel.MinHops != 1 || rel.MaxHops != 1
		switch {
		case b.bound[lv] && b.bound[rv]:
			b.plan = append(b.plan, &op.ExpandInto{
				From: lv, To: rv, Et: ets[bestJ], Dir: rel.Dir,
				DstLabel: labels[bestJ+1], SrcLabel: labels[bestJ], MinHops: rel.MinHops, MaxHops: rel.MaxHops,
			})
			b.rows = bestRows
		case bestRight:
			if varLen {
				// A var-length pair's shortest distance is the same either
				// way, so the reversed traversal enumerates the same set.
				b.plan = append(b.plan, &op.VarLengthExpand{
					From: rv, To: lv, Et: ets[bestJ], Dir: rel.Dir.Reverse(), DstLabel: labels[bestJ],
					MinHops: rel.MinHops, MaxHops: rel.MaxHops,
				})
			} else {
				b.plan = append(b.plan, &op.Expand{
					From: rv, To: lv, Et: ets[bestJ], Dir: rel.Dir.Reverse(), DstLabel: labels[bestJ],
				})
			}
			b.bound[lv] = true
			b.rows = bestRows
			if err := pushVar(lv); err != nil {
				return err
			}
		default:
			if varLen {
				b.plan = append(b.plan, &op.VarLengthExpand{
					From: lv, To: rv, Et: ets[bestJ], Dir: rel.Dir, DstLabel: labels[bestJ+1],
					MinHops: rel.MinHops, MaxHops: rel.MaxHops,
				})
			} else {
				b.plan = append(b.plan, &op.Expand{
					From: lv, To: rv, Et: ets[bestJ], Dir: rel.Dir, DstLabel: labels[bestJ+1],
				})
			}
			b.bound[rv] = true
			b.rows = bestRows
			if err := pushVar(rv); err != nil {
				return err
			}
		}
		done[bestJ] = true
	}

	// Residual: multi-variable conjuncts, plus any single-variable group
	// whose variable never bound (ensureProjections reports it as an
	// unknown variable).
	for _, v := range varOrder {
		if len(perVar[v]) > 0 {
			residual = append(residual, perVar[v]...)
			delete(perVar, v)
		}
	}
	if len(residual) > 0 {
		pred := andAll(residual)
		if err := b.ensureProjections(pred); err != nil {
			return err
		}
		e, err := b.toExpr(pred)
		if err != nil {
			return err
		}
		b.plan = append(b.plan, &op.Filter{Pred: e})
		for range residual {
			b.rows /= 3 // no cross-variable statistics; assume 1/3 each
		}
	}
	return nil
}

// fanout estimates the average neighbor count of one traversal step,
// raising it to the mean hop count for variable-length relationships.
func (b *binder) fanout(src catalog.LabelID, et catalog.EdgeTypeID, rel RelPat, reversed bool, dst catalog.LabelID) float64 {
	dir := rel.Dir
	if reversed {
		dir = dir.Reverse()
	}
	f := b.cost.FanOut(src, et, dir, dst)
	if rel.MinHops != 1 || rel.MaxHops != 1 {
		hops := float64(rel.MinHops+rel.MaxHops) / 2
		f = math.Min(math.Pow(f, hops), 1e15)
	}
	return f
}

// seekFromConjs finds an `id(v) = <int>` conjunct in a split conjunct list
// and returns the seek plus the conjunct's index.
func (b *binder) seekFromConjs(v string, conjs []Expr) (idSeek, int, bool) {
	for i, c := range conjs {
		bin, ok := c.(Bin)
		if !ok || bin.Op != "=" {
			continue
		}
		if id, ok := bin.L.(IDRef); ok && id.Var == v {
			if s, ok := b.seekLit(bin.R); ok {
				return s, i, true
			}
		}
		if id, ok := bin.R.(IDRef); ok && id.Var == v {
			if s, ok := b.seekLit(bin.L); ok {
				return s, i, true
			}
		}
	}
	return idSeek{}, -1, false
}

// conjSel estimates the selectivity of one conjunct over a variable with
// the given label, reading the column summaries through the cost model.
// Without statistics every conjunct estimates 1, so no filter moves the
// anchor or the frontier.
func (b *binder) conjSel(c Expr, label catalog.LabelID) float64 {
	if b.cost == nil {
		return 1
	}
	switch n := c.(type) {
	case Bin:
		switch n.Op {
		case "AND":
			return b.conjSel(n.L, label) * b.conjSel(n.R, label)
		case "OR":
			return math.Min(1, b.conjSel(n.L, label)+b.conjSel(n.R, label))
		case "=", "<>":
			var eq float64
			if pr, _, ok := propCmp(n.L, n.R); ok {
				eq = b.cost.EqSel(label, pr.Prop)
			} else if _, ok := cmpIDLit(n.L, n.R); ok {
				eq = 1 / math.Max(1, b.cost.LabelCard(label))
			} else {
				return 1
			}
			if n.Op == "<>" {
				return 1 - eq
			}
			return eq
		case "<", "<=", ">", ">=":
			if pr, lit, ok := propCmp(n.L, n.R); ok {
				return b.cost.RangeSel(label, pr.Prop, n.Op, b.litValue(lit))
			}
			if pr, lit, ok := propCmp(n.R, n.L); ok {
				// literal OP prop — flip the operator.
				flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
				return b.cost.RangeSel(label, pr.Prop, flip[n.Op], b.litValue(lit))
			}
			return 1
		}
	case InList:
		if pr, ok := n.X.(PropRef); ok {
			return b.cost.InSel(label, pr.Prop, len(n.List))
		}
	case StrPred:
		return b.cost.StrSel()
	case Not:
		return math.Max(1-b.conjSel(n.X, label), 0.05)
	}
	return 1
}

// propCmp matches `<prop> OP <literal>` operand pairs.
func propCmp(l, r Expr) (PropRef, Lit, bool) {
	pr, ok := l.(PropRef)
	if !ok {
		return PropRef{}, Lit{}, false
	}
	lit, ok := r.(Lit)
	if !ok {
		return PropRef{}, Lit{}, false
	}
	return pr, lit, true
}

// cmpIDLit matches `id(v) = <literal>` operand pairs in either order.
func cmpIDLit(l, r Expr) (IDRef, bool) {
	if id, ok := l.(IDRef); ok {
		if _, isLit := r.(Lit); isLit {
			return id, true
		}
	}
	if id, ok := r.(IDRef); ok {
		if _, isLit := l.(Lit); isLit {
			return id, true
		}
	}
	return IDRef{}, false
}

// conjuncts splits the AND tree of a WHERE expression.
func conjuncts(e Expr, dst []Expr) []Expr {
	if e == nil {
		return dst
	}
	if bin, ok := e.(Bin); ok && bin.Op == "AND" {
		return conjuncts(bin.R, conjuncts(bin.L, dst))
	}
	return append(dst, e)
}

// andAll rebuilds a conjunction from split conjuncts.
func andAll(cs []Expr) Expr {
	e := cs[0]
	for _, c := range cs[1:] {
		e = Bin{Op: "AND", L: e, R: c}
	}
	return e
}

// refVars returns the distinct variables referenced by an expression, in
// first-appearance order.
func refVars(e Expr, dst []string) []string {
	for _, ref := range collectRefs(e, nil) {
		var v string
		switch r := ref.(type) {
		case PropRef:
			v = r.Var
		case IDRef:
			v = r.Var
		}
		found := false
		for _, d := range dst {
			if d == v {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, v)
		}
	}
	return dst
}
