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
// (§4.3, Order-By). It never materializes the flat relation: an f-Tree's
// enumeration hands the ordering kernel (tupleOrder) the rows of just the
// nodes the keys and Cols read, a flat block hands it row indices, and with
// a Limit a bounded heap keeps only the best Limit tuples — Figure 8(b)(vi).
// Only the returned tuples are boxed.
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

// Execute implements Operator.
func (o *OrderBy) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	var out *core.FlatBlock
	var err error
	if in.IsFlat() {
		out, err = orderFlat(ctx, in.Flat, o.Keys, o.Limit, o.Cols, o.Late)
	} else {
		out, err = orderTree(ctx, in.FT, o.Keys, o.Limit, o.Cols, o.Late)
	}
	if err != nil {
		return nil, err
	}
	return ctx.FlatChunk(out), nil
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

// orderTree orders the tuples of an f-Tree. A tuple is the row of every node
// a key or an output column lives on; the enumeration writes those rows into
// the kernel's slot and the keys compare the node columns directly. A late
// column is read from its variable's node as VIDs and gathered after the cut.
func orderTree(ctx *Ctx, ft *core.FTree, sortKeys []SortKey, limit int, cols []string, late []ProjSpec) (*core.FlatBlock, error) {
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
	ord := newTupleOrder(ctx, len(nodes), limit, keys)
	defer ord.release()
	full := false
	ft.EnumerateRows(0, ft.Root.Block.NumRows(), func(rows []int, _ int) bool {
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
	gathered, err := gatherLate(ctx, cols, late, kinds, len(ids), func(c, i int) vector.VID {
		return outs[c].col.VIDAt(int(ord.tuple(ids[i])[outs[c].pos]))
	})
	if err != nil {
		return nil, err
	}
	return rowsOf(cols, kinds, gathered, len(ids), func(c, i int) vector.Value {
		return outs[c].col.Get(int(ord.tuple(ids[i])[outs[c].pos]))
	}), nil
}

// rowsOf builds the block of n rows of cols: a gathered column's value i, or
// get's.
func rowsOf(cols []string, kinds []vector.Kind, gathered []*vector.Column, n int, get func(c, i int) vector.Value) *core.FlatBlock {
	out := core.NewFlatBlock(append([]string(nil), cols...), kinds)
	out.Rows = make([][]vector.Value, n)
	w := len(cols)
	vals := make([]vector.Value, n*w)
	for i := range out.Rows {
		row := vals[i*w : (i+1)*w : (i+1)*w]
		for c := range row {
			if g := gathered[c]; g != nil {
				row[c] = g.Get(i)
			} else {
				row[c] = get(c, i)
			}
		}
		out.Rows[i] = row
	}
	return out
}

// tuplePos returns the tuple position of node n's row, adding the node to
// nodes when it has none yet.
func tuplePos(nodes []int, n *core.Node) ([]int, int) {
	if i := slices.Index(nodes, n.ID()); i >= 0 {
		return nodes, i
	}
	return append(nodes, n.ID()), len(nodes)
}

// orderFlat orders the rows of a flat block by keys, keeps the first limit
// (all when limit <= 0) and narrows them to cols (every column when nil),
// the late ones gathered for the kept rows. A tuple is one row index; keys
// compare row values. A kept row is shared, not copied, when cols is the
// block's own schema.
func orderFlat(ctx *Ctx, fb *core.FlatBlock, sortKeys []SortKey, limit int, cols []string, late []ProjSpec) (*core.FlatBlock, error) {
	keys := make([]orderKey, len(sortKeys))
	for i, k := range sortKeys {
		j := fb.ColIndex(k.Col)
		if j < 0 {
			return nil, errNoColumn("order-by", k.Col)
		}
		rows := fb.Rows
		keys[i] = orderKey{desc: k.Desc, cmp: func(a, b int32) int { return vector.Compare(rows[a][j], rows[b][j]) }}
	}
	var idx []int
	var kinds []vector.Kind
	if cols != nil && !slices.Equal(cols, fb.Names) {
		idx, kinds = make([]int, len(cols)), make([]vector.Kind, len(cols))
		for i, name := range cols {
			if idx[i] = fb.ColIndex(source(name, late)); idx[i] < 0 {
				return nil, errNoColumn("order-by", source(name, late))
			}
			kinds[i] = fb.Kinds[idx[i]]
		}
	}
	ord := newTupleOrder(ctx, 1, limit, keys)
	defer ord.release()
	for r := range fb.Rows {
		ord.next()[0] = int32(r)
		ord.offer()
	}
	ids := ord.sorted()
	row := func(i int) []vector.Value { return fb.Rows[ord.tuple(ids[i])[0]] }
	if idx == nil {
		out := core.NewFlatBlock(fb.Names, fb.Kinds)
		out.Rows = make([][]vector.Value, len(ids))
		for i := range ids {
			out.Rows[i] = row(i)
		}
		return out, nil
	}
	gathered, err := gatherLate(ctx, cols, late, kinds, len(ids), func(c, i int) vector.VID { return row(i)[idx[c]].AsVID() })
	if err != nil {
		return nil, err
	}
	return rowsOf(cols, kinds, gathered, len(ids), func(c, i int) vector.Value { return row(i)[idx[c]] }), nil
}

// tupleOrder is the one ordering kernel: OrderBy, over an f-Tree or a flat
// block, and AggregateProjectTop, over its group table, sort and cut int32
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
// one (dict strings resolve lazily — codes are not order-preserving).
func columnComparator(c *vector.Column) func(a, b int32) int {
	switch c.Kind {
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
// nil) — the de-factor of a RETURN … LIMIT without ORDER BY. On a factorized
// chunk the constant-delay enumeration resolves only Cols and stops after
// Skip+N tuples (Lemma 4.4) instead of materializing the relation first.
type Limit struct {
	N    int
	Skip int
	Cols []string
}

// Name implements Operator.
func (o *Limit) Name() string { return "Limit" }

// Execute implements Operator.
func (o *Limit) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in.IsFlat() {
		fb := in.Flat
		lo := min(o.Skip, fb.NumRows())
		hi := lo + min(max(o.N, 0), fb.NumRows()-lo)
		out := core.NewFlatBlock(fb.Names, fb.Kinds)
		out.Rows = fb.Rows[lo:hi]
		if o.Cols != nil && !slices.Equal(o.Cols, fb.Names) {
			var err error
			if out, err = out.Project(o.Cols); err != nil {
				return nil, err
			}
		}
		return ctx.FlatChunk(out), nil
	}
	cols := o.Cols
	if cols == nil {
		cols = in.FT.Schema()
	}
	refs, err := in.FT.Resolve(cols)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = in.FT.Nodes()[r.Node].Block.Column(r.Col).Kind
	}
	out := core.NewFlatBlock(append([]string(nil), cols...), kinds)
	if o.N > 0 {
		skip := o.Skip
		in.FT.Enumerate(refs, func(row []vector.Value) bool {
			if skip > 0 {
				skip--
				return true
			}
			out.Append(row)
			return out.NumRows() < o.N
		})
	}
	return ctx.FlatChunk(out), nil
}

// Distinct removes duplicate tuples over the named columns (all columns when
// nil). It requires global cross-tuple state, so it is a de-factoring
// operator.
type Distinct struct {
	Cols []string
}

// Name implements Operator.
func (o *Distinct) Name() string { return "Distinct" }

// Execute implements Operator.
func (o *Distinct) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	var fb *core.FlatBlock
	var err error
	if in.IsFlat() {
		fb = in.Flat
		if o.Cols != nil {
			if fb, err = fb.Project(o.Cols); err != nil {
				return nil, err
			}
		}
	} else {
		d := &Defactor{Cols: o.Cols}
		ch, err := d.Execute(ctx, in)
		if err != nil {
			return nil, err
		}
		fb = ch.Flat
	}
	out := core.NewFlatBlock(fb.Names, fb.Kinds)
	seen := make(map[string]struct{}, fb.NumRows())
	for _, row := range fb.Rows {
		k := rowKey(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.AppendOwned(row)
	}
	return ctx.FlatChunk(out), nil
}

// rowKey builds a collision-safe hash key for a tuple using length-prefixed
// value encodings (appendKey).
func rowKey(row []vector.Value) string {
	var buf []byte
	for _, v := range row {
		buf = appendKey(buf, v)
	}
	return string(buf)
}

// appendKey appends v's part of a rowKey: the length of its string, a colon,
// the string.
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
