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

// CheckArg returns an error when the aggregate cannot take an argument of
// kind k: SUM and AVG take numbers only — an int64, a date or a float.
func (a AggSpec) CheckArg(k vector.Kind) error {
	if (a.Func == Sum || a.Func == Avg) && !intOrDate(k) && k != vector.KindFloat64 {
		return fmt.Errorf("aggregate %s(%s) takes a number, got %s", a.Func, a.Arg, k)
	}
	return nil
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
// both call it. It folds only the columns the aggregates read, once per row
// of one axis, each row standing for a weight of tuples (fold):
//
//   - when every group-by column and argument lies on one root-to-leaf chain
//     (COUNT(*) alone anchors at the root), the axis is the rows of the
//     chain's deepest node, weighted by the number of full tuples each takes
//     part in (FTree.Weights), and the columns of its ancestors are read
//     through parent-row maps (bindColumns) — no tuple is enumerated;
//   - otherwise, for columns on sibling branches, the axis is the tuples,
//     each of weight 1: the enumeration a de-factor takes (tupleRows) gives
//     every column its node's row in each tuple, and no value is gathered.
//     So does a float SUM or AVG over a tree of several nodes: a weight
//     multiplies what the tuples add one by one, and float addition does not
//     associate.
//
// The rows the groups keep (their keys' and MIN/MAX's) are the columns' own,
// so the input tree must outlive the table.
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
	for j, a := range o.Aggs {
		if err := a.CheckArg(t.argKind(j)); err != nil {
			return nil, err
		}
	}
	buf := weightBufs.Get().(*[]int64)
	defer weightBufs.Put(buf)
	var w []int64
	if node := t.chainNode(ft, refs); node != nil {
		w = ft.Weights(node, buf)
		t.bindColumns(ctx, ft, node, refs)
	} else {
		var ids []int // the nodes refs lie on, in the order of their tuple rows
		pos := make([]int, len(refs))
		for k, r := range refs {
			ids, pos[k] = tuplePos(ids, nodes[r.Node])
		}
		t.held = tupleRows(ctx, ft, ids)
		t.bound = make([]aggCol, len(refs))
		for k, r := range refs {
			t.bound[k] = aggCol{col: nodes[r.Node].Block.Column(r.Col), rows: t.held[pos[k]]}
		}
		w = (*buf)[:0]
		for range t.held[0] {
			w = append(w, 1)
		}
		*buf = w
	}
	defer putRows(ctx, t.held)
	t.bind()
	t.fold(ctx, w)
	return t, nil
}

// chainNode returns the node whose rows the fold's axis is, weighted, or nil
// when the axis is the tuples (group).
func (t *aggTable) chainNode(ft *core.FTree, refs []core.ColRef) *core.Node {
	if ft.NumNodes() > 1 && t.floatSum() {
		return nil
	}
	return foldNode(ft, refs)
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

// aggTable is the group table the fold fills. A folded row holds cols — the
// key columns, then the distinct arguments — and stands for a number of
// tuples.
//
// Groups are slots numbered in first-seen order, and their states live in
// typed slabs indexed by slot (times the number of aggregates), grown once
// per folded morsel. A group keeps no value: it records, per key column, the
// row that opened it, and a MIN or MAX the row of its best value, and block
// gathers both from their columns at emit. A global aggregate has one slot;
// a KeyVar table finds a slot by VID in a dense array (visitSet), a lone
// dictionary-coded string column without nulls by code in one, a lone
// integer or date column without nulls by value in a map, and anything else
// by its key's bytes (appendKey) in a map.
type aggTable struct {
	o        *Aggregate
	cols     []string
	kinds    []vector.Kind // of cols
	groupIdx []int         // position in cols of each key column
	argIdx   []int         // position in cols of each argument; -1 for COUNT(*)

	keyed   keyMode
	n       int32            // groups
	dense   *visitSet        // keyVID by VID, keyCode by dictionary code
	byInt   map[int64]int32  // keyInt
	byKey   map[string]int32 // keyBytes
	key     []byte           // keyBytes scratch
	keyRows [][]int32        // per key column, the row that opened each group
	vids    []vector.VID     // keyVID: each group's key (slots)
	ids     []int64          // keyVID: each group's id, read once (slots)
	runs    []int64          // keyVID with leaves: each group's product of leaf runs

	count    []int64 // slabs: slot*len(aggs)+j
	sumI     []int64
	sumF     []float64
	best     []int32 // MIN or MAX: the argument's row of the best value
	distinct []map[string]struct{}

	// The fold's columns, bound to the rows of its axis (group).
	bound []aggCol
	held  [][]int32 // the row maps bound reads through, to release
}

type keyMode uint8

const (
	keyGlobal keyMode = iota
	keyVID
	keyCode
	keyInt
	keyBytes
)

// aggCol is one column the fold reads, at the axis's row i or, for a column
// of another node, at rows[i].
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
		keyRows: make([][]int32, len(o.GroupBy))}
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

// bind picks the group key from the bound columns — a lone key column is
// keyed by code or by value only without nulls, which its bytes keep apart
// from the zero a null row holds — and sizes the slabs of the groups open so
// far.
func (t *aggTable) bind() {
	t.keyed = keyBytes
	if g := t.groupIdx; len(g) == 0 {
		t.keyed = keyGlobal
	} else if t.o.KeyVar != "" {
		t.keyed = keyVID
	} else if c := t.bound[g[0]].col; len(g) == 1 && !c.HasNulls() && intOrDate(c.Kind) {
		t.keyed = keyInt
	} else if len(g) == 1 && !c.HasNulls() && c.DictEncoded() {
		t.keyed = keyCode
	}
	switch t.keyed {
	case keyVID, keyCode:
		t.dense = visits.Get().(*visitSet)
		t.dense.reset()
	case keyInt:
		t.byInt = make(map[int64]int32)
	case keyBytes:
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

// bindColumns binds the fold to the rows of node, the deepest node of the
// chain holding refs: a column on an ancestor reads through node's map to
// that ancestor's rows (core.Node.RowsAbove).
func (t *aggTable) bindColumns(ctx *Ctx, ft *core.FTree, node *core.Node, refs []core.ColRef) {
	nodes := ft.Nodes()
	rows := make([][]int32, len(nodes)) // nil on node itself: the identity
	for _, r := range refs {
		if anc := nodes[r.Node]; anc != node && rows[r.Node] == nil {
			rows[r.Node] = node.RowsAbove(anc, ctx.Arena.GetInt32s(node.Block.NumRows()))
			t.held = append(t.held, rows[r.Node])
		}
	}
	t.bound = make([]aggCol, len(refs))
	for k, r := range refs {
		t.bound[k] = aggCol{col: nodes[r.Node].Block.Column(r.Col), rows: rows[r.Node]}
	}
}

// foldMorsel is the number of rows fold slots before it updates the slabs.
const foldMorsel = 1024

// fold adds every row of the axis, row i standing for w[i] tuples, to its
// group, a morsel at a time in two passes over arena scratch: the rows of
// weight above 0 and their group slots (slotRows), then each aggregate's
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

// slotRows writes the group slot of each of the axis's rows into ss,
// opening the groups that are new.
func (t *aggTable) slotRows(rows, ss []int32) {
	if t.keyed == keyGlobal {
		clear(ss)
		return
	}
	key := t.bound[t.groupIdx[0]]
	vids, codes, ints := key.col.VIDs(), key.col.Codes(), key.col.Int64s()
	for k, i := range rows {
		var s int32
		var old bool
		switch r := key.row(int(i)); t.keyed {
		case keyVID:
			s = t.dense.slot(vids[r], t.n)
			old = s < t.n
		case keyCode:
			s = t.dense.slot(vector.VID(codes[r]), t.n)
			old = s < t.n
		case keyInt:
			if s, old = t.byInt[ints[r]]; !old {
				s = t.n
				t.byInt[ints[r]] = s
			}
		default:
			t.key = t.key[:0]
			for _, c := range t.groupIdx {
				t.key = appendKey(t.key, t.bound[c].col.Get(t.bound[c].row(int(i))))
			}
			if s, old = t.byKey[string(t.key)]; !old {
				s = t.n
				t.byKey[string(t.key)] = s
			}
		}
		if !old {
			for g, c := range t.groupIdx {
				t.keyRows[g] = append(t.keyRows[g], int32(t.bound[c].row(int(i))))
			}
			t.n++
		}
		ss[k] = s
	}
}

// foldSlab adds the rows, in the groups ss, to aggregate j's states: COUNT
// adds weights, SUM and AVG weight × value read from the typed slice of
// their number argument (a null row holds its kind's zero), COUNT DISTINCT
// each value's string. A MIN or MAX keeps the row of its best value: over
// integers or dates without nulls it compares inline, otherwise through
// columnComparator, which orders as vector.Compare does, nulls included.
func (t *aggTable) foldSlab(j int, a AggSpec, w []int64, rows, ss []int32) {
	var c aggCol
	var v []int64               // an integer or date argument's values
	var f []float64             // a float argument's values
	var by func(a, b int32) int // MIN or MAX, unless compared inline
	if a.Func != Count {
		c = t.bound[t.argIdx[j]]
		switch k := c.col.Kind; {
		case intOrDate(k):
			v = c.col.Int64s()
		case k == vector.KindFloat64:
			f = c.col.Float64s()
		}
		if (a.Func == Min || a.Func == Max) && (v == nil || c.col.HasNulls()) {
			by = columnComparator(c.col)
		}
	}
	for k, i := range rows {
		s, r := int(ss[k])*len(t.o.Aggs)+j, c.row(int(i))
		switch {
		case a.Func == Count:
			t.count[s] += w[i]
		case a.Func == CountDistinct:
			if t.distinct[s] == nil {
				t.distinct[s] = make(map[string]struct{})
			}
			t.distinct[s][c.col.Get(r).String()] = struct{}{}
		case a.Func == Sum || a.Func == Avg:
			t.count[s] += w[i]
			if f != nil {
				t.sumF[s] += f[r] * float64(w[i])
			} else {
				t.sumI[s] += w[i] * v[r]
			}
		default: // MIN or MAX
			var d int // against the best row so far, row 0 before the first
			if by != nil {
				d = by(int32(r), t.best[s])
			} else {
				d = cmp.Compare(v[r], v[t.best[s]])
			}
			if t.count[s] == 0 || (a.Func == Min && d < 0) || (a.Func == Max && d > 0) {
				t.best[s] = int32(r)
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

// result emits the final value of state k, aggregate a over argKind, but
// for a MIN or MAX, whose value block gathers.
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
	}
	return vector.Value{}
}

// floatSum reports whether a SUM or AVG adds float arguments.
func (t *aggTable) floatSum() bool {
	for j, a := range t.o.Aggs {
		if (a.Func == Sum || a.Func == Avg) && t.argKind(j) == vector.KindFloat64 {
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

// slots returns the group slots in emission order: ascending order of their
// keys' bytes (appendKey) — the order every consumer that can observe it
// sees — or, when Unordered and no group column is a float, first-seen
// order. A KeyVar table reads every group's id here, in one batch, and runs
// its per-group leaves, leaving out the groups with an empty run: a
// weight-0 row would never have opened them.
func (t *aggTable) slots(ctx *Ctx) []int32 {
	if t.keyed == keyVID {
		src := t.bound[t.groupIdx[0]].col.VIDs()
		t.vids, t.ids = make([]vector.VID, t.n), make([]int64, t.n)
		for s, r := range t.keyRows[0] {
			t.vids[s] = src[r]
		}
		ctx.View.GatherExtIDs(t.vids, nil, t.ids)
		if len(t.o.Leaves) > 0 && t.n > 0 {
			t.runLeaves(ctx)
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

// comparator orders two groups by output column c — the group-by columns,
// then the aggregates — as vector.Compare orders their values, reading the
// typed state: a key or a MIN or MAX compares its column at the groups'
// rows.
func (t *aggTable) comparator(c int) func(a, b int32) int {
	na := len(t.o.Aggs)
	if c < len(t.o.GroupBy) {
		if t.keyed == keyVID {
			return func(a, b int32) int { return cmp.Compare(t.ids[a], t.ids[b]) }
		}
		by, rows := columnComparator(t.bound[t.groupIdx[c]].col), t.keyRows[c]
		return func(a, b int32) int { return by(rows[a], rows[b]) }
	}
	j := c - len(t.o.GroupBy)
	switch a := t.o.Aggs[j]; a.Func {
	case Count:
		return func(a, b int32) int { return cmp.Compare(t.count[int(a)*na+j], t.count[int(b)*na+j]) }
	case Min, Max:
		by := columnComparator(t.bound[t.argIdx[j]].col)
		return func(a, b int32) int { return by(t.best[int(a)*na+j], t.best[int(b)*na+j]) }
	default:
		return func(x, y int32) int {
			return vector.Compare(t.result(int(x)*na+j, a, t.argKind(j)), t.result(int(y)*na+j, a, t.argKind(j)))
		}
	}
}

// block returns the groups of slots, in that order, as typed columns: the
// group columns, then the aggregates. A key column, and a MIN or MAX, is its
// column gathered at the groups' rows, so dictionary codes and nulls carry
// over; a MIN or MAX over no rows is null.
func (t *aggTable) block(ctx *Ctx, slots []int32) *core.FBlock {
	o, b := t.o, ctx.NewFBlock()
	rows := ctx.Arena.GetInt32s(len(slots))[:len(slots)] // the groups' rows in one column
	defer ctx.Arena.PutInt32s(rows)
	gather := func(name string, src *vector.Column) {
		col := ctx.Arena.OwnColumn(name, src.Kind)
		col.Gather(src, rows)
		b.AddColumn(col)
	}
	for i, name := range o.GroupBy {
		if t.keyed == keyVID {
			col := ctx.Arena.OwnColumn(name, vector.KindInt64)
			for _, s := range slots {
				col.AppendInt64(t.ids[s])
			}
			b.AddColumn(col)
			continue
		}
		for k, s := range slots {
			rows[k] = t.keyRows[i][s]
		}
		gather(name, t.bound[t.groupIdx[i]].col)
	}
	na := len(o.Aggs)
	for j, a := range o.Aggs {
		if a.Func == Min || a.Func == Max {
			for k, s := range slots {
				rows[k] = t.best[int(s)*na+j]
			}
			if src := t.bound[t.argIdx[j]].col; len(o.GroupBy) > 0 || t.count[j] > 0 {
				gather(a.As, src)
			} else {
				col := ctx.Arena.OwnColumn(a.As, src.Kind)
				col.Append(vector.Value{})
				b.AddColumn(col)
			}
			continue
		}
		col := ctx.Arena.OwnColumn(a.As, aggOutputKind(a, t.argKind(j)))
		for _, s := range slots {
			if k := int(s)*na + j; a.Func == Count {
				col.AppendInt64(t.count[k])
			} else {
				col.Append(t.result(k, a, t.argKind(j)))
			}
		}
		b.AddColumn(col)
	}
	return b
}

// sortSlots orders group slots by their keys' bytes (appendKey), written
// once per group into one buffer.
func (t *aggTable) sortSlots(slots []int32) {
	var buf []byte
	ends := make([]int, t.n+1)
	for s := range t.n {
		for i, rows := range t.keyRows {
			if t.keyed == keyVID {
				buf = appendKey(buf, vector.Int64(t.ids[s]))
			} else {
				buf = appendKey(buf, t.bound[t.groupIdx[i]].col.Get(int(rows[s])))
			}
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
