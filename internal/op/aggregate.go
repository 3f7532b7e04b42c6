package op

import (
	"fmt"
	"slices"
	"strings"

	"ges/internal/core"
	"ges/internal/vector"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	Count AggFunc = iota
	CountDistinct
	Sum
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	return [...]string{"count", "count-distinct", "sum", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate: Func applied to column Arg (empty = count(*)),
// emitted as As.
type AggSpec struct {
	Func AggFunc
	Arg  string
	As   string
}

// Aggregate groups tuples and computes aggregates (§4.3, Aggregation). It
// never de-factors: a factorized chunk goes through aggregate's f-Tree
// kernel, a flat one is folded row by row, and both fold into one group
// table.
type Aggregate struct {
	GroupBy []string
	Aggs    []AggSpec
}

// Name implements Operator.
func (o *Aggregate) Name() string { return "Aggregate" }

// Execute implements Operator.
func (o *Aggregate) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	out, err := aggregate(in, o.GroupBy, o.Aggs)
	if err != nil {
		return nil, err
	}
	return ctx.FlatChunk(out), nil
}

// aggregate is the one aggregation kernel; Aggregate and AggregateProjectTop
// both call it. A flat block folds row by row. An f-Tree folds only the
// columns the aggregates read:
//
//   - when every group-by column and argument lives on one node (COUNT(*)
//     alone anchors at the root), each row of that node is folded once,
//     weighted by the number of full tuples it takes part in (tupleWeights)
//     — no tuple is enumerated;
//   - otherwise the constant-delay enumeration of just those columns streams
//     into the group table. So does a float SUM or AVG over a tree of several
//     nodes: a weight multiplies what the enumeration adds tuple by tuple,
//     and float addition does not associate.
func aggregate(in *core.Chunk, groupBy []string, aggs []AggSpec) (*core.FlatBlock, error) {
	t, err := newAggTable(groupBy, aggs)
	if err != nil {
		return nil, err
	}
	if in.IsFlat() {
		return t.foldFlat(in.Flat)
	}
	ft := in.FT
	if ft == nil {
		return nil, fmt.Errorf("op: aggregate: empty chunk")
	}
	assertFTree(ft)
	refs, err := ft.Resolve(t.cols)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = ft.Nodes()[r.Node].Block.Column(r.Col).Kind
	}
	t.bind(kinds)
	node := ft.Root
	if len(refs) > 0 {
		node = ft.NodeOfColumns(t.cols)
	}
	multi := len(ft.Nodes()) > 1
	if node == nil || (multi && t.floatSum()) {
		ft.Enumerate(refs, func(row []vector.Value) bool {
			t.fold(row, 1)
			return true
		})
		return t.emit(), nil
	}
	// A single-node tree needs no weights: every selected row is one tuple.
	var w []int64
	if multi {
		w = tupleWeights(ft, node)
	}
	cols := make([]*vector.Column, len(refs))
	for i, r := range refs {
		cols[i] = node.Block.Column(r.Col)
	}
	row := make([]vector.Value, len(cols))
	for i, n := 0, node.Block.NumRows(); i < n; i++ {
		wi := int64(1)
		if w != nil {
			if wi = w[i]; wi == 0 {
				continue
			}
		} else if !node.Sel.Get(i) {
			continue
		}
		for k, c := range cols {
			row[k] = c.Get(i)
		}
		t.fold(row, wi)
	}
	return t.emit(), nil
}

// aggTable is the group table every aggregation path folds into. A folded
// row holds cols — the distinct group-by and argument columns — and carries
// a weight, the number of tuples it stands for.
type aggTable struct {
	groupBy  []string
	aggs     []AggSpec
	cols     []string
	kinds    []vector.Kind // of cols
	groupIdx []int         // position in cols of each group-by column
	argIdx   []int         // position in cols of each argument; -1 for COUNT(*)

	// groups holds one state per group in first-seen order; a global
	// aggregate has exactly one, folded into with no key at all. A lone
	// integer-like group column keys byInt by its value, a lone string
	// column keys byKey by its value, anything else keys byKey by rowKey.
	groups []*aggState
	byInt  map[int64]*aggState
	byKey  map[string]*aggState
	keyed  keyMode
	vals   []vector.Value // group-value scratch
}

type keyMode uint8

const (
	keyGlobal keyMode = iota
	keyInt
	keyString
	keyRow
)

func newAggTable(groupBy []string, aggs []AggSpec) (aggTable, error) {
	idx := make([]int, len(groupBy)+len(aggs))
	t := aggTable{groupBy: groupBy, aggs: aggs, groupIdx: idx[:len(groupBy)],
		argIdx: idx[len(groupBy):], vals: make([]vector.Value, len(groupBy))}
	pos := func(c string) int {
		i := slices.Index(t.cols, c)
		if i < 0 {
			i = len(t.cols)
			t.cols = append(t.cols, c)
		}
		return i
	}
	for i, g := range groupBy {
		t.groupIdx[i] = pos(g)
	}
	for j, a := range aggs {
		if a.Arg == "" {
			if a.Func != Count {
				return t, fmt.Errorf("op: aggregate %s requires an argument", a.Func)
			}
			t.argIdx[j] = -1
			continue
		}
		t.argIdx[j] = pos(a.Arg)
	}
	if len(groupBy) == 0 {
		// Global aggregation over empty input still yields one row of zero
		// aggregates, per SQL/Cypher semantics.
		t.groups = []*aggState{newAggState(nil, aggs)}
	}
	return t, nil
}

// bind records the kinds of the folded columns and picks the group key.
func (t *aggTable) bind(kinds []vector.Kind) {
	t.kinds = kinds
	switch {
	case len(t.groupIdx) == 0:
		t.keyed = keyGlobal
	case len(t.groupIdx) > 1:
		t.keyed, t.byKey = keyRow, make(map[string]*aggState)
	default:
		switch kinds[t.groupIdx[0]] {
		case vector.KindInt64, vector.KindDate, vector.KindVID, vector.KindBool:
			t.keyed, t.byInt = keyInt, make(map[int64]*aggState)
		case vector.KindString:
			t.keyed, t.byKey = keyString, make(map[string]*aggState)
		default:
			t.keyed, t.byKey = keyRow, make(map[string]*aggState)
		}
	}
}

// foldFlat folds every row of a flat block.
func (t *aggTable) foldFlat(fb *core.FlatBlock) (*core.FlatBlock, error) {
	idx := make([]int, len(t.cols))
	kinds := make([]vector.Kind, len(t.cols))
	for i, c := range t.cols {
		if idx[i] = fb.ColIndex(c); idx[i] < 0 {
			return nil, errNoColumn("aggregate", c)
		}
		kinds[i] = fb.Kinds[idx[i]]
	}
	t.bind(kinds)
	row := make([]vector.Value, len(idx))
	for _, r := range fb.Rows {
		for i, j := range idx {
			row[i] = r[j]
		}
		t.fold(row, 1)
	}
	return t.emit(), nil
}

// fold adds one row, standing for w tuples, to its group.
func (t *aggTable) fold(row []vector.Value, w int64) {
	var st *aggState
	switch t.keyed {
	case keyGlobal:
		st = t.groups[0]
	case keyInt:
		k := row[t.groupIdx[0]].I
		if st = t.byInt[k]; st == nil {
			st = t.add(row)
			t.byInt[k] = st
		}
	case keyString:
		k := row[t.groupIdx[0]].S
		if st = t.byKey[k]; st == nil {
			st = t.add(row)
			t.byKey[k] = st
		}
	default:
		for i, g := range t.groupIdx {
			t.vals[i] = row[g]
		}
		k := rowKey(t.vals)
		if st = t.byKey[k]; st == nil {
			st = t.add(row)
			t.byKey[k] = st
		}
	}
	for j, a := range t.aggs {
		var v vector.Value
		if t.argIdx[j] >= 0 {
			v = row[t.argIdx[j]]
		}
		st.update(j, a, v, w)
	}
}

// add opens the group of row.
func (t *aggTable) add(row []vector.Value) *aggState {
	for i, g := range t.groupIdx {
		t.vals[i] = row[g]
	}
	st := newAggState(t.vals, t.aggs)
	st.key = rowKey(t.vals)
	t.groups = append(t.groups, st)
	return st
}

// floatSum reports whether a SUM or AVG adds float arguments.
func (t *aggTable) floatSum() bool {
	for j, a := range t.aggs {
		if (a.Func == Sum || a.Func == Avg) && t.argIdx[j] >= 0 && t.kinds[t.argIdx[j]] == vector.KindFloat64 {
			return true
		}
	}
	return false
}

// argKind is the kind of aggregate j's argument (int64 for COUNT(*)).
func (t *aggTable) argKind(j int) vector.Kind {
	if t.argIdx[j] < 0 {
		return vector.KindInt64
	}
	return t.kinds[t.argIdx[j]]
}

// emit renders the group table, groups in ascending group-key order for
// determinism.
func (t *aggTable) emit() *core.FlatBlock {
	names := append(make([]string, 0, len(t.groupBy)+len(t.aggs)), t.groupBy...)
	kinds := make([]vector.Kind, 0, len(names))
	for _, g := range t.groupIdx {
		kinds = append(kinds, t.kinds[g])
	}
	for j, a := range t.aggs {
		names = append(names, a.As)
		kinds = append(kinds, aggOutputKind(a, t.argKind(j)))
	}
	out := core.NewFlatBlock(names, kinds)
	slices.SortFunc(t.groups, func(a, b *aggState) int { return strings.Compare(a.key, b.key) })
	vals := make([]vector.Value, 0, len(t.groups)*len(names))
	out.Rows = make([][]vector.Value, len(t.groups))
	for i, st := range t.groups {
		lo := len(vals)
		vals = append(vals, st.groupVals...)
		for j, a := range t.aggs {
			vals = append(vals, st.result(j, a, t.argKind(j)))
		}
		out.Rows[i] = vals[lo:len(vals):len(vals)]
	}
	return out
}

// aggState accumulates one group.
type aggState struct {
	key       string // rowKey of groupVals, the emission order
	groupVals []vector.Value
	count     []int64
	sumI      []int64
	sumF      []float64
	min       []vector.Value
	max       []vector.Value
	distinct  []map[string]struct{}
}

// newAggState allocates only the accumulator slices the aggregate specs
// actually use — COUNT-only groups (the common case) carry just the count
// slice.
func newAggState(groupVals []vector.Value, aggs []AggSpec) *aggState {
	s := &aggState{
		groupVals: append([]vector.Value(nil), groupVals...),
		count:     make([]int64, len(aggs)),
	}
	for _, a := range aggs {
		switch a.Func {
		case Sum, Avg:
			if s.sumI == nil {
				s.sumI = make([]int64, len(aggs))
				s.sumF = make([]float64, len(aggs))
			}
		case Min:
			if s.min == nil {
				s.min = make([]vector.Value, len(aggs))
			}
		case Max:
			if s.max == nil {
				s.max = make([]vector.Value, len(aggs))
			}
		case CountDistinct:
			if s.distinct == nil {
				s.distinct = make([]map[string]struct{}, len(aggs))
			}
		}
	}
	return s
}

// update folds one value (with multiplicity weight) into aggregate j.
func (s *aggState) update(j int, spec AggSpec, v vector.Value, weight int64) {
	switch spec.Func {
	case Count:
		s.count[j] += weight
	case CountDistinct:
		if s.distinct[j] == nil {
			s.distinct[j] = make(map[string]struct{})
		}
		s.distinct[j][v.String()] = struct{}{}
	case Sum, Avg:
		s.count[j] += weight
		if v.Kind == vector.KindFloat64 {
			s.sumF[j] += v.F * float64(weight)
		} else {
			s.sumI[j] += v.I * weight
		}
	case Min:
		if s.count[j] == 0 || vector.Compare(v, s.min[j]) < 0 {
			s.min[j] = v
		}
		s.count[j]++
	case Max:
		if s.count[j] == 0 || vector.Compare(v, s.max[j]) > 0 {
			s.max[j] = v
		}
		s.count[j]++
	}
}

// result emits the final value of aggregate j.
func (s *aggState) result(j int, spec AggSpec, argKind vector.Kind) vector.Value {
	switch spec.Func {
	case Count:
		return vector.Int64(s.count[j])
	case CountDistinct:
		return vector.Int64(int64(len(s.distinct[j])))
	case Sum:
		if argKind == vector.KindFloat64 {
			return vector.Float64(s.sumF[j])
		}
		return vector.Int64(s.sumI[j])
	case Avg:
		if s.count[j] == 0 {
			return vector.Float64(0)
		}
		total := s.sumF[j]
		if argKind != vector.KindFloat64 {
			total = float64(s.sumI[j])
		}
		return vector.Float64(total / float64(s.count[j]))
	case Min:
		return s.min[j]
	case Max:
		return s.max[j]
	}
	return vector.Value{}
}

// aggOutputKind returns the result kind of an aggregate over argKind.
func aggOutputKind(spec AggSpec, argKind vector.Kind) vector.Kind {
	switch spec.Func {
	case Count, CountDistinct:
		return vector.KindInt64
	case Avg:
		return vector.KindFloat64
	default:
		return argKind
	}
}

// HashAggregateBlock exposes the flat grouping kernel for alternative
// executors (volcano drains its child iterator into a block and reuses the
// same aggregation semantics, keeping results comparable).
func HashAggregateBlock(fb *core.FlatBlock, groupBy []string, aggs []AggSpec) (*core.FlatBlock, error) {
	return aggregate(&core.Chunk{Flat: fb}, groupBy, aggs)
}

// tupleWeights returns, for every row of node, the number of valid full
// tuples of R_FT the row takes part in: down × up. One bottom-up ("down")
// pass over the whole tree counts each row's subtree; the top-down ("up")
// pass runs only along the path from the root to node, carrying the product
// of the rest of the tree. A root row's up is 1, so COUNT(*) — anchored at
// the root — costs the bottom-up pass alone.
func tupleWeights(ft *core.FTree, node *core.Node) []int64 {
	nodes := ft.Nodes()
	// One backing array holds every node's down counts; small trees keep the
	// per-node views on the stack.
	var views [8][]int64
	down := views[:0]
	if len(nodes) > len(views) {
		down = make([][]int64, 0, len(nodes))
	}
	total := 0
	for _, nd := range nodes {
		total += nd.Block.NumRows()
	}
	buf := make([]int64, total)
	for _, nd := range nodes {
		n := nd.Block.NumRows()
		down, buf = append(down, buf[:n:n]), buf[n:]
	}
	// Bottom-up: children have larger IDs than parents (preorder append).
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := nodes[i]
		d := down[i]
		for r := range d {
			if !nd.Sel.Get(r) {
				continue
			}
			prod := int64(1)
			for _, c := range nd.Children {
				if prod *= rangeSum(down[c.ID()], c.Index[r]); prod == 0 {
					break
				}
			}
			d[r] = prod
		}
	}
	w := down[node.ID()]
	if node == ft.Root {
		return w // down is already zero for invalid rows
	}
	var path []*core.Node
	for n := node; n.Parent != nil; n = n.Parent {
		path = append(path, n)
	}
	up := make([]int64, ft.Root.Block.NumRows())
	for r := range up {
		if ft.Root.Sel.Get(r) {
			up[r] = 1
		}
	}
	for k := len(path) - 1; k >= 0; k-- {
		c := path[k]
		p := c.Parent
		next := make([]int64, c.Block.NumRows())
		for r, u := range up {
			// Only valid parent rows extend tuples downward: up may be
			// positive for rows the selection vector has since invalidated.
			if u == 0 || !p.Sel.Get(r) {
				continue
			}
			for _, s := range p.Children {
				if s != c {
					if u *= rangeSum(down[s.ID()], s.Index[r]); u == 0 {
						break
					}
				}
			}
			if u == 0 {
				continue
			}
			rg := c.Index[r]
			for j := rg.Start; j < rg.End; j++ {
				next[j] = u
			}
		}
		up = next
	}
	for r := range w {
		w[r] *= up[r]
	}
	return w
}

// rangeSum adds the weights of one index-vector range.
func rangeSum(w []int64, rg core.Range) int64 {
	var s int64
	for _, x := range w[rg.Start:rg.End] {
		s += x
	}
	return s
}
