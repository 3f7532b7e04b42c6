package op

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// SortKey is one ORDER BY key.
type SortKey struct {
	Col  string
	Desc bool
}

// OrderBy is a blocking operator: ordering is defined over whole tuples
// (§4.3, Order-By). It never materializes the flat relation: the f-Tree's
// enumeration hands the ordering kernel (tupleOrder) the rows of just the
// nodes the keys and Cols read, and with a Limit a bounded heap keeps only
// the best Limit tuples — Figure 8(b)(vi). The kept tuples come out as a
// one-node tree, each column gathered at their rows.
//
// Late holds the projections plan.Fuse moved past the cut (gather after the
// cut): columns of Cols that no filter, sort key or group key reads. The
// kept tuples carry the specs' variables instead, and OrderBy batch-gathers
// the columns for their VIDs only.
type OrderBy struct {
	Keys  []SortKey
	Limit int      // 0 = sort everything
	Cols  []string // output columns; nil = full schema
	Late  []ProjSpec
}

// Name implements Operator.
func (o *OrderBy) Name() string {
	if len(o.Late) == 0 {
		return "OrderBy"
	}
	names := make([]string, len(o.Late))
	for i, s := range o.Late {
		names[i] = s.As
	}
	return "OrderBy(late " + strings.Join(names, ",") + ")"
}

// gatherLate gathers, for the n kept tuples, every column of cols a late
// spec produces (nil for the others) and its kind, one batch per variable over
// the VIDs vidAt reads: the variable's VID in kept tuple i, for column c.
func gatherLate(ctx *Ctx, cols []string, late []ProjSpec, kinds []vector.Kind, n int, vidAt func(c, i int) vector.VID) ([]*vector.Column, error) {
	out := make([]*vector.Column, len(cols))
	var vids *vector.Column // the kept tuples' VIDs of the last late variable
	for c, name := range cols {
		l := slices.IndexFunc(late, func(s ProjSpec) bool { return s.As == name })
		if l < 0 {
			continue
		}
		s := late[l]
		if vids == nil || vids.Name != s.Var {
			vids = ctx.Arena.OwnColumn(s.Var, vector.KindVID)
			for i := 0; i < n; i++ {
				vids.AppendVID(vidAt(c, i))
			}
		}
		if s.ExtID {
			out[c] = gatherExtIDColumn(ctx, vids, s.As)
		} else if g, err := newPropGetter(ctx.View, s.Prop); err != nil {
			return nil, err
		} else {
			out[c] = g.gatherColumn(ctx, vids, s.As)
		}
		kinds[c] = out[c].Kind
	}
	return out, nil
}

// source returns the column col reads: a late spec's variable, or col.
func source(col string, late []ProjSpec) string {
	if l := slices.IndexFunc(late, func(s ProjSpec) bool { return s.As == col }); l >= 0 {
		return late[l].Var
	}
	return col
}

// Execute implements Operator. A tuple is the row of every node a key or an
// output column lives on; the enumeration writes those rows into the
// kernel's slot and the keys compare the node columns directly. A late
// column is read from its variable's node as VIDs and gathered after the cut.
func (o *OrderBy) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	cols, sortKeys, late := o.Cols, o.Keys, o.Late
	if cols == nil {
		cols = ft.Schema()
	}
	var nodeBuf [8]int
	nodes := nodeBuf[:0] // node ID behind each position of a tuple
	keys := make([]orderKey, len(sortKeys))
	for i, k := range sortKeys {
		n, c := ft.FindColumn(k.Col)
		if c == nil {
			return nil, errNoColumn("order-by", k.Col)
		}
		keys[i] = orderKey{desc: k.Desc, cmp: columnComparator(c)}
		nodes, keys[i].pos = tuplePos(nodes, n)
	}
	type outCol struct {
		pos int // the column's tuple position
		col *vector.Column
	}
	outs := make([]outCol, len(cols))
	kinds := make([]vector.Kind, len(cols))
	for i, name := range cols {
		n, c := ft.FindColumn(source(name, late))
		if c == nil {
			return nil, errNoColumn("order-by", source(name, late))
		}
		outs[i].col, kinds[i] = c, c.Kind
		nodes, outs[i].pos = tuplePos(nodes, n)
	}
	ord := newTupleOrder(ctx, len(nodes), o.Limit, keys)
	defer ord.release()
	full := false
	ft.EnumerateRows(func(rows []int, _ int) bool {
		if full = ord.n == math.MaxInt32; full {
			return false
		}
		t := ord.next()
		for j, id := range nodes {
			t[j] = int32(rows[id])
		}
		ord.offer()
		return true
	})
	if full {
		return nil, fmt.Errorf("op: order-by: more than %d tuples", math.MaxInt32-1)
	}
	ids := ord.sorted()
	rows := make([][]int32, len(nodes))
	for p := range rows {
		rows[p] = make([]int32, len(ids))
		for i, id := range ids {
			rows[p][i] = ord.tuple(id)[p]
		}
	}
	gathered, err := gatherLate(ctx, cols, late, kinds, len(ids), func(c, i int) vector.VID {
		return outs[c].col.VIDAt(int(rows[outs[c].pos][i]))
	})
	if err != nil {
		return nil, err
	}
	b := ctx.NewFBlock()
	for c, name := range cols {
		col := gathered[c]
		if col == nil {
			col = ctx.Arena.OwnColumn(name, kinds[c])
			col.Gather(outs[c].col, rows[outs[c].pos])
		}
		b.AddColumn(col)
	}
	return ctx.Arena.OwnFTree(b), nil
}

// tuplePos returns the tuple position of node n's row, adding the node to
// nodes when it has none yet.
func tuplePos(nodes []int, n *core.Node) ([]int, int) {
	if i := slices.Index(nodes, n.ID()); i >= 0 {
		return nodes, i
	}
	return append(nodes, n.ID()), len(nodes)
}

// tupleOrder is the one ordering kernel: OrderBy, over an f-Tree, and
// AggregateProjectTop, over its group table, sort and cut int32
// tuple ids with it. The caller writes each tuple, in input order, into the
// slot next returns — m int32 row positions — and offers it; sorted returns
// the kept slots in order. Keys compare positions through per-column
// comparators and a tie goes to the tuple offered first: the order of a
// stable sort followed by truncation to limit. With limit > 0 at most
// limit+1 slots exist: the kept tuples form a bounded max-heap whose root,
// the worst of them, a better tuple replaces.
type tupleOrder struct {
	arena *storage.Arena
	keys  []orderKey
	m     int
	limit int
	n     int32   // tuples offered
	pos   []int32 // slot s holds pos[s*m : s*m+m]
	seq   []int32 // input order of the tuple in each slot
	kept  []int32 // slots kept; a max-heap while limit > 0
	spare int32   // the slot next hands out
}

// orderKey is one sort key: the tuple position it reads and a comparator of
// two such positions.
type orderKey struct {
	pos  int
	desc bool
	cmp  func(a, b int32) int
}

// orderSlots is the kernel's initial slot capacity when no limit bounds it.
const orderSlots = 64

func newTupleOrder(ctx *Ctx, m, limit int, keys []orderKey) tupleOrder {
	slots := orderSlots
	if limit > 0 {
		slots = min(limit+1, orderSlots)
	}
	return tupleOrder{arena: ctx.Arena, keys: keys, m: m, limit: limit,
		pos: ctx.Arena.GetInt32s(slots * m), seq: ctx.Arena.GetInt32s(slots), kept: ctx.Arena.GetInt32s(slots)}
}

// next returns the spare slot for the caller to fill with a tuple.
func (o *tupleOrder) next() []int32 {
	if int(o.spare) == len(o.seq) {
		o.seq = append(o.seq, 0)
		o.pos = slices.Grow(o.pos, o.m)[:len(o.pos)+o.m]
	}
	return o.tuple(o.spare)
}

// offer considers the tuple written into the spare slot.
func (o *tupleOrder) offer() {
	s := o.spare
	o.seq[s] = o.n
	o.n++
	if o.limit <= 0 || len(o.kept) < o.limit {
		o.kept = append(o.kept, s)
		if o.limit > 0 {
			o.up(len(o.kept) - 1)
		}
		o.spare = int32(len(o.kept))
		return
	}
	if o.compare(s, o.kept[0]) < 0 {
		o.kept[0], o.spare = s, o.kept[0]
		o.down(0)
	}
}

// tuple returns the positions held by a slot.
func (o *tupleOrder) tuple(s int32) []int32 {
	lo := int(s) * o.m
	return o.pos[lo : lo+o.m]
}

// compare orders two slots: by the keys, then by input order.
func (o *tupleOrder) compare(a, b int32) int {
	ta, tb := o.tuple(a), o.tuple(b)
	for _, k := range o.keys {
		if c := k.cmp(ta[k.pos], tb[k.pos]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(o.seq[a], o.seq[b])
}

// up and down restore the max-heap after kept[i] was added or replaced.
func (o *tupleOrder) up(i int) {
	h := o.kept
	for i > 0 {
		p := (i - 1) / 2
		if o.compare(h[p], h[i]) >= 0 {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (o *tupleOrder) down(i int) {
	h := o.kept
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && o.compare(h[r], h[c]) > 0 {
			c = r
		}
		if o.compare(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns the kept slots in order.
func (o *tupleOrder) sorted() []int32 {
	slices.SortFunc(o.kept, o.compare)
	return o.kept
}

// release returns the kernel's scratch to the arena.
func (o *tupleOrder) release() {
	o.arena.PutInt32s(o.pos)
	o.arena.PutInt32s(o.seq)
	o.arena.PutInt32s(o.kept)
}

// columnComparator returns a row-position comparator matching vector.Compare
// on a column's values, reading typed storage directly where the kind has
// one (dict strings resolve lazily — codes are not order-preserving) and
// the column has no nulls.
func columnComparator(c *vector.Column) func(a, b int32) int {
	kind := c.Kind
	if c.HasNulls() {
		kind = vector.KindInvalid
	}
	switch kind {
	case vector.KindInt64, vector.KindDate:
		vals := c.Int64s()
		return func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) }
	case vector.KindFloat64:
		vals := c.Float64s()
		return func(a, b int32) int {
			switch {
			case vals[a] < vals[b]:
				return -1
			case vals[a] > vals[b]:
				return 1
			default:
				return 0
			}
		}
	case vector.KindVID:
		return func(a, b int32) int { return cmp.Compare(c.VIDAt(int(a)), c.VIDAt(int(b))) }
	case vector.KindString:
		return func(a, b int32) int { return strings.Compare(c.StringAt(int(a)), c.StringAt(int(b))) }
	default:
		return func(a, b int32) int { return vector.Compare(c.Get(int(a)), c.Get(int(b))) }
	}
}

// Limit keeps tuples Skip+1 … Skip+N, narrowed to Cols (the full schema when
// nil) — the de-factor of a RETURN … LIMIT without ORDER BY. The
// constant-delay enumeration records the rows of just the nodes Cols live
// on and stops after Skip+N tuples (Lemma 4.4); each column is gathered at
// the kept tuples' rows into a one-node tree.
type Limit struct {
	N    int
	Skip int
	Cols []string
}

// Name implements Operator.
func (o *Limit) Name() string { return "Limit" }

// Execute implements Operator.
func (o *Limit) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	names := o.Cols
	if names == nil {
		names = ft.Schema()
	}
	cols, pos, nodes, err := tupleCols(ft, names)
	if err != nil {
		return nil, err
	}
	rows := make([][]int32, len(nodes))
	appendTuples(ft, nodes, o.Skip, max(o.N, 0), rows)
	return ctx.Arena.OwnFTree(gatherBlock(ctx, names, cols, pos, rows)), nil
}

// appendKey appends v's part of a collision-safe key of several values: the
// length of its string, a colon, the string.
func appendKey(dst []byte, v vector.Value) []byte {
	var num [20]byte
	s := num[:0]
	if v.Kind == vector.KindInt64 || v.Kind == vector.KindDate {
		s = strconv.AppendInt(s, v.I, 10)
	} else {
		s = append(s, v.String()...)
	}
	return append(append(strconv.AppendInt(dst, int64(len(s)), 10), ':'), s...)
}
