package op

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

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
// never de-factors: it folds the f-Tree into one group table and emits the
// groups as a one-node tree of typed columns.
type Aggregate struct {
	GroupBy []string
	Aggs    []AggSpec

	// KeyVar, set by plan.Fuse, is the single-label variable whose id() the
	// lone GroupBy column is. The table then keys groups by the variable's
	// VID in a dense array and reads each group's id once, when it emits.
	KeyVar string
	// Leaves, set by plan.Fuse, are expands from KeyVar only counted, run
	// once per group instead of once per row: the fold counts each key's
	// rows, and one NeighborsBatch over the distinct keys multiplies every
	// COUNT by the key's neighbor count. A key with no neighbors opens no group.
	Leaves []*Expand
	// Unordered, set by plan.Fuse when no consumer can observe the order of
	// the groups, emits them in first-seen order, unsorted, unless a group
	// column is a float.
	Unordered bool
}

// Name implements Operator.
func (o *Aggregate) Name() string { return "Aggregate" + o.leafNames("(", ")") }

// leafNames lists the per-group leaves' variables between open and close,
// or returns "" when there are none.
func (o *Aggregate) leafNames(open, close string) string {
	if len(o.Leaves) == 0 {
		return ""
	}
	names := make([]string, len(o.Leaves))
	for i, l := range o.Leaves {
		names[i] = l.To
	}
	return open + "per-group count " + strings.Join(names, ",") + close
}

// Execute implements Operator.
func (o *Aggregate) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	t, err := o.group(ctx, ft)
	if err != nil {
		return nil, err
	}
	defer t.release()
	return ctx.Arena.OwnFTree(t.block(ctx, t.slots(ctx))), nil
}

// group is the one aggregation kernel; Aggregate and AggregateProjectTop
// both call it. The tree folds only the columns the aggregates read:
//
//   - when every group-by column and argument lies on one root-to-leaf chain
//     (COUNT(*) alone anchors at the root), each row of the chain's deepest
//     node is folded once, weighted by the number of full tuples it takes
//     part in (FTree.Weights), and the columns of its ancestors are read
//     through parent-row maps — no tuple is enumerated, no row boxed (fold);
//   - otherwise, for columns on sibling branches, the constant-delay
//     enumeration of just those columns streams into the group table. So
//     does a float SUM or AVG over a tree of several nodes: a weight
//     multiplies what the enumeration adds tuple by tuple, and float
//     addition does not associate.
func (o *Aggregate) group(ctx *Ctx, ft *core.FTree) (*aggTable, error) {
	t, err := newAggTable(o)
	if err != nil {
		return nil, err
	}
	assertFTree(ft)
	refs, err := ft.Resolve(t.cols)
	if err != nil {
		return nil, err
	}
	nodes := ft.Nodes()
	t.kinds = make([]vector.Kind, len(refs))
	for i, r := range refs {
		t.kinds[i] = nodes[r.Node].Block.Column(r.Col).Kind
	}
	node := foldNode(ft, refs)
	if node == nil || (len(nodes) > 1 && t.floatSum()) {
		t.bind()
		ft.Enumerate(refs, func(row []vector.Value) bool {
			t.foldRow(row, 1)
			return true
		})
		return t, nil
	}
	buf := weightBufs.Get().(*[]int64)
	defer weightBufs.Put(buf)
	w := ft.Weights(node, buf)
	t.bindColumns(ctx, ft, node, refs)
	defer func() {
		for _, m := range t.held {
			ctx.Arena.PutInt32s(m)
		}
	}()
	t.bind()
	t.fold(ctx, w)
	return t, nil
}

// foldNode returns the deepest node of the root-to-leaf chain holding every
// referenced column — the root when there are none — or nil when they lie on
// sibling branches.
func foldNode(ft *core.FTree, refs []core.ColRef) *core.Node {
	deep := ft.Root
	for _, r := range refs {
		if n := ft.Nodes()[r.Node]; depth(n) > depth(deep) {
			deep = n
		}
	}
	for _, r := range refs {
		n := deep
		for n != nil && n.ID() != r.Node {
			n = n.Parent
		}
		if n == nil {
			return nil
		}
	}
	return deep
}

func depth(n *core.Node) (d int) {
	for ; n.Parent != nil; n = n.Parent {
		d++
	}
	return d
}

// aggTable is the group table every aggregation path folds into. A folded
// row holds cols — the key columns, then the distinct arguments — and stands
// for a number of tuples.
//
// Groups are slots numbered in first-seen order, and their states live in
// slabs indexed by slot (times the number of aggregates), grown once per
// folded morsel. A global aggregate has one slot; a KeyVar table finds a
// slot by VID in a dense array (visitSet), a lone dictionary-coded string
// column by code in one, rendering each group's string once, at emit; a lone
// integer-like or plain string column by value in a map; anything else by
// rowKey.
type aggTable struct {
	o        *Aggregate
	cols     []string
	kinds    []vector.Kind // of cols
	groupIdx []int         // position in cols of each key column
	argIdx   []int         // position in cols of each argument; -1 for COUNT(*)

	keyed keyMode
	n     int32            // groups
	dense *visitSet        // keyVID by VID, keyCode by dictionary code
	byInt map[int64]int32  // keyInt
	byKey map[string]int32 // keyString, keyRow
	vids  []vector.VID     // keyVID: each group's key; keyCode: its code
	dict  *vector.Dict     // keyCode: the key column's dictionary
	runs  []int64          // keyVID with leaves: each group's product of leaf runs
	keys  []vector.Value   // each group's key values; keyVID's ids once read (slots)
	vals  []vector.Value   // key scratch

	count    []int64 // slabs: slot*len(aggs)+j
	sumI     []int64
	sumF     []float64
	best     []vector.Value // MIN or MAX
	distinct []map[string]struct{}

	// The fold's columns, bound to one node's rows (bindColumns).
	bound []aggCol
	held  [][]int32 // parent-row maps to release
}

type keyMode uint8

const (
	keyGlobal keyMode = iota
	keyVID
	keyCode
	keyInt
	keyString
	keyRow
)

// aggCol is one column the fold reads, at the fold node's row i or,
// for a column on an ancestor, at rows[i].
type aggCol struct {
	col  *vector.Column
	rows []int32
}

func (c *aggCol) row(i int) int {
	if c.rows != nil {
		return int(c.rows[i])
	}
	return i
}

// weightBufs recycles FTree.Weights' counts across queries.
var weightBufs = sync.Pool{New: func() any { return new([]int64) }}

func newAggTable(o *Aggregate) (*aggTable, error) {
	idx := make([]int, len(o.GroupBy)+len(o.Aggs))
	t := &aggTable{o: o, groupIdx: idx[:len(o.GroupBy)], argIdx: idx[len(o.GroupBy):],
		vals: make([]vector.Value, len(o.GroupBy))}
	pos := func(c string) int {
		i := slices.Index(t.cols, c)
		if i < 0 {
			i = len(t.cols)
			t.cols = append(t.cols, c)
		}
		return i
	}
	for i, g := range o.GroupBy {
		if o.KeyVar != "" {
			g = o.KeyVar
		}
		t.groupIdx[i] = pos(g)
	}
	for j, a := range o.Aggs {
		if a.Arg == "" {
			if a.Func != Count {
				return nil, fmt.Errorf("op: aggregate %s requires an argument", a.Func)
			}
			t.argIdx[j] = -1
			continue
		}
		t.argIdx[j] = pos(a.Arg)
	}
	if len(o.GroupBy) == 0 {
		// Global aggregation over empty input still yields one row of zero
		// aggregates, per SQL/Cypher semantics (bind sizes its slabs).
		t.n = 1
	}
	return t, nil
}

// bind picks the group key from the folded columns — a lone string column is
// keyed by code when the fold reads it dictionary-coded and without nulls
// (bindColumns) — and sizes the slabs of the groups open so far.
func (t *aggTable) bind() {
	t.keyed = keyRow
	switch g := t.groupIdx; {
	case len(g) == 0:
		t.keyed = keyGlobal
	case t.o.KeyVar != "":
		t.keyed = keyVID
	case len(g) > 1 || t.kinds[g[0]] == vector.KindFloat64: // rowKey
	case t.kinds[g[0]] != vector.KindString:
		t.keyed = keyInt
	case t.bound != nil && t.bound[g[0]].col.DictEncoded() && !t.bound[g[0]].col.HasNulls():
		t.keyed, t.dict = keyCode, t.bound[g[0]].col.Dict()
	default:
		t.keyed = keyString
	}
	switch t.keyed {
	case keyVID, keyCode:
		t.dense = visits.Get().(*visitSet)
		t.dense.reset()
	case keyInt:
		t.byInt = make(map[int64]int32)
	case keyString, keyRow:
		t.byKey = make(map[string]int32)
	}
	t.grow()
}

// release returns the dense key array to its pool.
func (t *aggTable) release() {
	if t.dense != nil {
		visits.Put(t.dense)
		t.dense = nil
	}
}

// foldRow adds one row, standing for w tuples, to its group.
func (t *aggTable) foldRow(row []vector.Value, w int64) {
	for i, g := range t.groupIdx {
		t.vals[i] = row[g]
	}
	s := t.slotOf(t.vals)
	t.grow()
	for j, a := range t.o.Aggs {
		var v vector.Value
		if t.argIdx[j] >= 0 {
			v = row[t.argIdx[j]]
		}
		t.update(int(s)*len(t.o.Aggs)+j, a, v, w)
	}
}

// bindColumns binds the fold to the rows of node, the deepest node of the
// chain holding refs: a column on an ancestor reads through a map from
// node's rows to that ancestor's rows, composed level by level from the
// index vectors up to the highest node refs reach. A level's map never
// decreases (index vectors are contiguous and in parent order), so the next
// one follows it with a forward cursor over the ranges.
func (t *aggTable) bindColumns(ctx *Ctx, ft *core.FTree, node *core.Node, refs []core.ColRef) {
	nodes := ft.Nodes()
	top := node
	for _, r := range refs {
		if n := nodes[r.Node]; depth(n) < depth(top) {
			top = n
		}
	}
	rows := make([][]int32, len(nodes)) // nil on node itself: the identity
	n := node.Block.NumRows()
	for c := node; c != top; c = c.Parent {
		m, below, r := ctx.Arena.GetInt32s(n)[:n], rows[c.ID()], 0
		for i := range m {
			x := int32(i)
			if below != nil {
				x = below[i]
			}
			for x >= c.Index[r].End {
				r++
			}
			m[i] = int32(r)
		}
		rows[c.Parent.ID()] = m
		t.held = append(t.held, m)
	}
	t.bound = make([]aggCol, len(refs))
	for k, r := range refs {
		t.bound[k] = aggCol{col: nodes[r.Node].Block.Column(r.Col), rows: rows[r.Node]}
	}
}

// foldMorsel is the number of rows fold slots before it updates the slabs.
const foldMorsel = 1024

// fold adds every row of the fold node, row i standing for w[i] tuples, to
// its group, a morsel at a time in two passes over arena scratch: the rows
// of weight above 0 and their group slots (slotRows), then each aggregate's
// slab straight from its column (foldSlab).
func (t *aggTable) fold(ctx *Ctx, w []int64) {
	m := min(len(w), foldMorsel)
	scratch := ctx.Arena.GetInt32s(2 * m)[:2*m]
	defer ctx.Arena.PutInt32s(scratch)
	live, ss := scratch[:m], scratch[m:]
	for lo := 0; lo < len(w); lo += foldMorsel {
		n := 0
		for i := lo; i < min(lo+foldMorsel, len(w)); i++ {
			live[n] = int32(i)
			n += int(uint64(-w[i]) >> 63) // 1 when w[i] > 0: no branch
		}
		t.slotRows(live[:n], ss[:n])
		t.grow()
		for j, a := range t.o.Aggs {
			t.foldSlab(j, a, w, live[:n], ss[:n])
		}
	}
}

// slotRows writes the group slot of each of the fold node's rows into ss,
// opening the groups that are new.
func (t *aggTable) slotRows(rows, ss []int32) {
	switch t.keyed {
	case keyVID, keyCode:
		key := t.bound[t.groupIdx[0]]
		vids, codes := key.col.VIDs(), key.col.Codes()
		for k, i := range rows {
			if r := key.row(int(i)); t.keyed == keyVID {
				ss[k] = t.slotVID(vids[r])
			} else {
				ss[k] = t.slotVID(vector.VID(codes[r]))
			}
		}
	default:
		for k, i := range rows {
			for g, c := range t.groupIdx {
				t.vals[g] = t.bound[c].col.Get(t.bound[c].row(int(i)))
			}
			ss[k] = t.slotOf(t.vals)
		}
	}
}

// slotOf returns the slot of the group whose key columns hold vals, opening
// it — and recording its key — when it is new.
func (t *aggTable) slotOf(vals []vector.Value) (s int32) {
	fresh := false
	switch t.keyed {
	case keyGlobal:
		return 0
	case keyVID:
		return t.slotVID(vals[0].AsVID())
	case keyInt:
		s, fresh = slot(t, t.byInt, vals[0].I)
	case keyString:
		s, fresh = slot(t, t.byKey, vals[0].S)
	default:
		s, fresh = slot(t, t.byKey, rowKey(vals))
	}
	if fresh {
		t.keys = append(t.keys, vals...)
	}
	return s
}

// foldSlab adds the rows, in the groups ss, to aggregate j's states: COUNT
// adds weights, SUM/AVG over integers or dates weight × value, MIN/MAX over
// them compare unboxed; the rest, and a column with nulls, fold the boxed
// value (update).
func (t *aggTable) foldSlab(j int, a AggSpec, w []int64, rows, ss []int32) {
	var c aggCol
	var v []int64 // an integer or date argument's values
	if a.Func != Count {
		c = t.bound[t.argIdx[j]]
		if intOrDate(c.col.Kind) && !c.col.HasNulls() {
			v = c.col.Int64s()
		}
	}
	for k, i := range rows {
		s, r := int(ss[k])*len(t.o.Aggs)+j, c.row(int(i))
		switch {
		case a.Func == Count:
			t.count[s] += w[i]
		case v == nil || a.Func == CountDistinct:
			t.update(s, a, c.col.Get(r), w[i])
		case a.Func == Sum || a.Func == Avg:
			t.count[s] += w[i]
			t.sumI[s] += w[i] * v[r]
		default: // MIN or MAX
			if b := t.best[s].I; t.count[s] == 0 || (a.Func == Min && v[r] < b) || (a.Func == Max && v[r] > b) {
				t.best[s] = c.col.Get(r)
			}
			t.count[s]++
		}
	}
}

// runLeaves runs the per-group leaves (Aggregate.Leaves) over the distinct
// keys, one NeighborsBatch each, and multiplies each group's COUNTs by the
// product of its key's runs. COUNT DISTINCT, MIN and MAX saw the same rows
// either way.
func (t *aggTable) runLeaves(ctx *Ctx) {
	t.runs = make([]int64, len(t.vids))
	t.o.Leaves[0].runLens(ctx, t.vids, t.runs)
	run := make([]int64, len(t.vids))
	for _, l := range t.o.Leaves[1:] {
		l.runLens(ctx, t.vids, run)
		for s, r := range run {
			t.runs[s] *= r
		}
	}
	for s, r := range t.runs {
		for j, a := range t.o.Aggs {
			if a.Func == Count {
				t.count[s*len(t.o.Aggs)+j] *= r
			}
		}
	}
}

// slotVID returns the slot of a dense key — a VID, or a dictionary code —
// opening it, and recording the key, when the key is new.
func (t *aggTable) slotVID(v vector.VID) int32 {
	s := t.dense.slot(v, t.n)
	if s == t.n {
		t.n++
		t.vids = append(t.vids, v)
	}
	return s
}

// slot returns the slot of key k in m, opening it when k is new (fresh), for
// the caller to record the key's values.
func slot[K comparable](t *aggTable, m map[K]int32, k K) (s int32, fresh bool) {
	if s, ok := m[k]; ok {
		return s, false
	}
	s, t.n = t.n, t.n+1
	m[k] = s
	return s, true
}

// grow extends the slabs the aggregates use with zeroed states to t.n
// groups: a SUM or AVG grows the float slab for a float argument, the
// integer slab otherwise.
func (t *aggTable) grow() {
	n := int(t.n) * len(t.o.Aggs)
	if len(t.count) == n {
		return
	}
	t.count = grown(t.count, n)
	for j, a := range t.o.Aggs {
		switch a.Func {
		case Sum, Avg:
			if t.argKind(j) == vector.KindFloat64 {
				t.sumF = grown(t.sumF, n)
			} else {
				t.sumI = grown(t.sumI, n)
			}
		case Min, Max:
			t.best = grown(t.best, n)
		case CountDistinct:
			t.distinct = grown(t.distinct, n)
		}
	}
}

// grown extends a slab with zero states to n.
func grown[T any](s []T, n int) []T {
	if old := len(s); old < n {
		s = slices.Grow(s, n-old)[:n]
		clear(s[old:])
	}
	return s
}

// update folds one value (with multiplicity weight) into state k, aggregate
// a of its group.
func (t *aggTable) update(k int, a AggSpec, v vector.Value, weight int64) {
	switch a.Func {
	case Count:
		t.count[k] += weight
	case CountDistinct:
		if t.distinct[k] == nil {
			t.distinct[k] = make(map[string]struct{})
		}
		t.distinct[k][v.String()] = struct{}{}
	case Sum, Avg:
		t.count[k] += weight
		if t.argKind(k%len(t.o.Aggs)) == vector.KindFloat64 {
			t.sumF[k] += v.F * float64(weight)
		} else {
			t.sumI[k] += v.I * weight
		}
	case Min, Max:
		c := vector.Compare(v, t.best[k])
		if t.count[k] == 0 || (a.Func == Min && c < 0) || (a.Func == Max && c > 0) {
			t.best[k] = v
		}
		t.count[k]++
	}
}

// result emits the final value of state k, aggregate a over argKind.
func (t *aggTable) result(k int, a AggSpec, argKind vector.Kind) vector.Value {
	switch a.Func {
	case Count:
		return vector.Int64(t.count[k])
	case CountDistinct:
		return vector.Int64(int64(len(t.distinct[k])))
	case Sum:
		if argKind == vector.KindFloat64 {
			return vector.Float64(t.sumF[k])
		}
		return vector.Int64(t.sumI[k])
	case Avg:
		if t.count[k] == 0 {
			return vector.Float64(0)
		}
		if argKind == vector.KindFloat64 {
			return vector.Float64(t.sumF[k] / float64(t.count[k]))
		}
		return vector.Float64(float64(t.sumI[k]) / float64(t.count[k]))
	case Min, Max:
		return t.best[k]
	}
	return vector.Value{}
}

// floatSum reports whether a SUM or AVG adds float arguments.
func (t *aggTable) floatSum() bool {
	for j, a := range t.o.Aggs {
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

// keyKind is the kind of group column i as emitted: a KeyVar key emits the
// variable's id.
func (t *aggTable) keyKind(i int) vector.Kind {
	if t.keyed == keyVID {
		return vector.KindInt64
	}
	return t.kinds[t.groupIdx[i]]
}

// slots returns the group slots in emission order: ascending rowKey order
// of their keys — the order every consumer that can observe it sees — or,
// when Unordered and no group column is a float, first-seen order. A
// KeyVar table reads every group's id here, in one batch, and runs its
// per-group leaves, leaving out the groups with an empty run: a weight-0
// row would never have opened them. A code-keyed table renders every
// group's string here.
func (t *aggTable) slots(ctx *Ctx) []int32 {
	if t.keyed == keyVID {
		ids := make([]int64, len(t.vids))
		ctx.View.GatherExtIDs(t.vids, nil, ids)
		t.keys = make([]vector.Value, len(ids))
		for i, id := range ids {
			t.keys[i] = vector.Int64(id)
		}
		if len(t.o.Leaves) > 0 && t.n > 0 {
			t.runLeaves(ctx)
		}
	}
	if t.keyed == keyCode {
		t.keys = make([]vector.Value, len(t.vids))
		for s, c := range t.vids {
			t.keys[s] = vector.String_(t.dict.Str(uint32(c)))
		}
	}
	slots := make([]int32, 0, t.n)
	for s := range t.n {
		if t.runs == nil || t.runs[s] != 0 {
			slots = append(slots, s)
		}
	}
	float := slices.ContainsFunc(t.groupIdx, func(g int) bool { return t.kinds[g] == vector.KindFloat64 })
	if len(slots) > 1 && (!t.o.Unordered || float) {
		t.sortSlots(slots)
	}
	return slots
}

// value returns output column c — the group-by columns, then the
// aggregates — of group s.
func (t *aggTable) value(s int32, c int) vector.Value {
	ng := len(t.o.GroupBy)
	if c < ng {
		return t.keys[int(s)*ng+c]
	}
	j := c - ng
	return t.result(int(s)*len(t.o.Aggs)+j, t.o.Aggs[j], t.argKind(j))
}

// comparator orders two groups by output column c as vector.Compare orders
// their values; a COUNT compares its slab directly.
func (t *aggTable) comparator(c int) func(a, b int32) int {
	na := len(t.o.Aggs)
	if j := c - len(t.o.GroupBy); j >= 0 && t.o.Aggs[j].Func == Count {
		return func(a, b int32) int { return cmp.Compare(t.count[int(a)*na+j], t.count[int(b)*na+j]) }
	}
	return func(a, b int32) int { return vector.Compare(t.value(a, c), t.value(b, c)) }
}

// block returns the groups of slots, in that order, as typed columns: the
// group columns, then the aggregates. A code-keyed group column holds its
// codes under the key column's dictionary; a MIN or MAX over no rows is
// null.
func (t *aggTable) block(ctx *Ctx, slots []int32) *core.FBlock {
	o, b := t.o, ctx.NewFBlock()
	ng := len(o.GroupBy)
	for i, name := range o.GroupBy {
		if t.keyed == keyCode {
			col := ctx.Arena.OwnDictColumn(name, t.dict)
			col.Grow(len(slots))
			codes := col.Codes()
			for k, s := range slots {
				codes[k] = uint32(t.vids[s])
			}
			b.AddColumn(col)
			continue
		}
		col := ctx.Arena.OwnColumn(name, t.keyKind(i))
		for _, s := range slots {
			col.Append(t.keys[int(s)*ng+i])
		}
		b.AddColumn(col)
	}
	for j, a := range o.Aggs {
		col := ctx.Arena.OwnColumn(a.As, aggOutputKind(a, t.argKind(j)))
		for _, s := range slots {
			k := int(s)*len(o.Aggs) + j
			if a.Func == Count {
				col.AppendInt64(t.count[k])
			} else {
				col.Append(t.result(k, a, t.argKind(j)))
			}
		}
		b.AddColumn(col)
	}
	return b
}

// sortSlots orders group slots by the rowKeys of their keys, written once
// per group into one buffer.
func (t *aggTable) sortSlots(slots []int32) {
	ng := len(t.o.GroupBy)
	var buf []byte
	ends := make([]int, t.n+1)
	for s := range t.n {
		for _, v := range t.keys[int(s)*ng : int(s+1)*ng] {
			buf = appendKey(buf, v)
		}
		ends[s+1] = len(buf)
	}
	slices.SortFunc(slots, func(a, b int32) int {
		return bytes.Compare(buf[ends[a]:ends[a+1]], buf[ends[b]:ends[b+1]])
	})
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
