package op

import (
	"container/heap"
	"sort"
	"strconv"
	"strings"

	"ges/internal/core"
	"ges/internal/vector"
)

// SortKey is one ORDER BY key.
type SortKey struct {
	Col  string
	Desc bool
}

// OrderBy is a blocking operator: ordering is defined over whole tuples, so
// when the sort keys span f-Tree nodes the chunk must be de-factored
// (§4.3, Order-By). The crucial optimization — used heavily by the paper's
// long-running queries — is that with a Limit the de-factoring enumerates
// tuples with constant delay *directly into a bounded top-k heap*, never
// materializing the full flat relation (Figure 8(b)(vi)).
type OrderBy struct {
	Keys  []SortKey
	Limit int      // 0 = sort everything
	Cols  []string // output columns; nil = full schema
}

// Name implements Operator.
func (o *OrderBy) Name() string { return "OrderBy" }

// Execute implements Operator.
func (o *OrderBy) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	var fb *core.FlatBlock
	if in.IsFlat() {
		fb = in.Flat
		if o.Cols != nil {
			// Sort first over the full rows, then project, so keys not in
			// Cols still apply? Keys must be within Cols for projection;
			// sort happens below on fb, project after.
			var err error
			if fb, err = projectKeepingKeys(fb, o.Cols, o.Keys); err != nil {
				return nil, err
			}
		}
	} else {
		cols := o.Cols
		if cols == nil {
			cols = in.FT.Schema()
		} else {
			cols = mergeKeyCols(cols, o.Keys)
		}
		keyIdx, err := keyIndices(cols, o.Keys)
		if err != nil {
			return nil, err
		}
		refs, err := in.FT.Resolve(cols)
		if err != nil {
			return nil, err
		}
		kinds := make([]vector.Kind, len(refs))
		for i, r := range refs {
			kinds[i] = in.FT.Nodes()[r.Node].Block.Column(r.Col).Kind
		}
		if o.Limit > 0 {
			// Vectorized Top-K (§5): a single-node tree keeps row *indices*
			// in the heap and compares sort keys directly against the
			// gathered columns — rejected rows are never boxed or copied.
			if out := columnarTopK(ctx, in.FT, refs, cols, kinds, keyIdx, o.Limit); out != nil {
				return o.projectOut(ctx, out)
			}
			// Constant-delay enumeration into a bounded heap.
			h := newTopK(o.Limit, keyIdx)
			in.FT.Enumerate(refs, func(row []vector.Value) bool {
				h.offer(row)
				return true
			})
			out := core.NewFlatBlock(append([]string(nil), cols...), kinds)
			out.Rows = h.sorted()
			return o.projectOut(ctx, out)
		}
		fb = core.NewFlatBlock(append([]string(nil), cols...), kinds)
		in.FT.Enumerate(refs, func(row []vector.Value) bool {
			fb.Append(row)
			return true
		})
	}
	keyIdx, err := keyIndices(fb.Names, o.Keys)
	if err != nil {
		return nil, err
	}
	if o.Limit > 0 && fb.NumRows() > o.Limit {
		h := newTopK(o.Limit, keyIdx)
		for _, row := range fb.Rows {
			h.offer(row)
		}
		out := core.NewFlatBlock(fb.Names, fb.Kinds)
		out.Rows = h.sorted()
		return o.projectOut(ctx, out)
	}
	sorted := core.NewFlatBlock(fb.Names, fb.Kinds)
	sorted.Rows = append([][]vector.Value(nil), fb.Rows...)
	sort.SliceStable(sorted.Rows, func(a, b int) bool {
		return rowLess(sorted.Rows[a], sorted.Rows[b], keyIdx)
	})
	return o.projectOut(ctx, sorted)
}

// projectOut narrows to o.Cols when set.
func (o *OrderBy) projectOut(ctx *Ctx, fb *core.FlatBlock) (*core.Chunk, error) {
	if o.Cols == nil {
		return ctx.FlatChunk(fb), nil
	}
	out, err := fb.Project(o.Cols)
	if err != nil {
		return nil, err
	}
	return ctx.FlatChunk(out), nil
}

func mergeKeyCols(cols []string, keys []SortKey) []string {
	out := append([]string(nil), cols...)
	for _, k := range keys {
		found := false
		for _, c := range out {
			if c == k.Col {
				found = true
				break
			}
		}
		if !found {
			out = append(out, k.Col)
		}
	}
	return out
}

func projectKeepingKeys(fb *core.FlatBlock, cols []string, keys []SortKey) (*core.FlatBlock, error) {
	return fb.Project(mergeKeyCols(cols, keys))
}

// keyIdx pairs a column position with its direction.
type keyIdx struct {
	pos  int
	desc bool
}

func keyIndices(names []string, keys []SortKey) ([]keyIdx, error) {
	out := make([]keyIdx, len(keys))
	for i, k := range keys {
		pos := -1
		for j, n := range names {
			if n == k.Col {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, errNoColumn("order-by", k.Col)
		}
		out[i] = keyIdx{pos: pos, desc: k.Desc}
	}
	return out, nil
}

// rowLess orders rows by the key list.
func rowLess(a, b []vector.Value, keys []keyIdx) bool {
	for _, k := range keys {
		c := vector.Compare(a[k.pos], b[k.pos])
		if c == 0 {
			continue
		}
		if k.desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// topK is a bounded max-heap keeping the K smallest rows under the key
// order (the heap root is the current worst retained row).
type topK struct {
	k    int
	keys []keyIdx
	rows [][]vector.Value
}

func newTopK(k int, keys []keyIdx) *topK { return &topK{k: k, keys: keys} }

func (h *topK) Len() int           { return len(h.rows) }
func (h *topK) Less(i, j int) bool { return rowLess(h.rows[j], h.rows[i], h.keys) }
func (h *topK) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *topK) Push(x any)         { h.rows = append(h.rows, x.([]vector.Value)) }
func (h *topK) Pop() any {
	last := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return last
}

// offer considers one row (copying it only if retained).
func (h *topK) offer(row []vector.Value) {
	if len(h.rows) < h.k {
		heap.Push(h, append([]vector.Value(nil), row...))
		return
	}
	if rowLess(row, h.rows[0], h.keys) {
		h.rows[0] = append([]vector.Value(nil), row...)
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into ascending key order.
func (h *topK) sorted() [][]vector.Value {
	out := make([][]vector.Value, len(h.rows))
	for i := len(h.rows) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).([]vector.Value)
	}
	return out
}

// columnarTopK is the vectorized Top-K fast path over a single-node tree.
// The heap replays exactly the comparison sequence of the enumeration path
// (same rows offered in the same order, compared by the same semantics as
// vector.Compare), so its output is byte-identical; only the boxing of
// rejected rows is gone.
func columnarTopK(ctx *Ctx, ft *core.FTree, refs []core.ColRef, cols []string, kinds []vector.Kind, keys []keyIdx, limit int) *core.FlatBlock {
	if len(ft.Nodes()) != 1 {
		return nil
	}
	node := ft.Nodes()[0]
	colAt := make([]*vector.Column, len(refs))
	for i, r := range refs {
		colAt[i] = node.Block.Column(r.Col)
	}
	cmps := make([]func(a, b int) int, len(keys))
	for ki, k := range keys {
		if cmps[ki] = columnComparator(colAt[k.pos]); cmps[ki] == nil {
			return nil
		}
	}
	h := &idxTopK{k: limit, keys: keys, cmps: cmps}
	for i, n := 0, node.Block.NumRows(); i < n; i++ {
		if node.Sel.Get(i) {
			h.offer(i)
		}
	}
	out := core.NewFlatBlock(append([]string(nil), cols...), kinds)
	for _, ri := range h.sortedIdx() {
		row := make([]vector.Value, len(colAt))
		for j, c := range colAt {
			row[j] = c.Get(ri)
		}
		out.AppendOwned(row)
	}
	return out
}

// columnComparator returns a row-index comparator matching vector.Compare on
// same-kind values, reading the column storage directly (dict strings
// resolve lazily — codes are not order-preserving).
func columnComparator(c *vector.Column) func(a, b int) int {
	switch c.Kind {
	case vector.KindInt64, vector.KindDate:
		vals := c.Int64s()
		return func(a, b int) int { return cmpI64(vals[a], vals[b]) }
	case vector.KindFloat64:
		vals := c.Float64s()
		return func(a, b int) int {
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
		return func(a, b int) int { return cmpI64(int64(c.VIDAt(a)), int64(c.VIDAt(b))) }
	case vector.KindString:
		return func(a, b int) int {
			sa, sb := c.StringAt(a), c.StringAt(b)
			switch {
			case sa < sb:
				return -1
			case sa > sb:
				return 1
			default:
				return 0
			}
		}
	case vector.KindBool:
		vals := c.Bools()
		return func(a, b int) int {
			var ia, ib int64
			if vals[a] {
				ia = 1
			}
			if vals[b] {
				ib = 1
			}
			return cmpI64(ia, ib)
		}
	default:
		return nil
	}
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// idxTopK is topK over row indices with columnar key comparators. The heap
// mechanics are identical to topK, so retained rows and output order match
// the boxed heap exactly.
type idxTopK struct {
	k    int
	keys []keyIdx
	cmps []func(a, b int) int
	idx  []int
}

// idxLess orders row a before row b under the key list.
func (h *idxTopK) idxLess(a, b int) bool {
	for ki, k := range h.keys {
		c := h.cmps[ki](a, b)
		if c == 0 {
			continue
		}
		if k.desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (h *idxTopK) Len() int           { return len(h.idx) }
func (h *idxTopK) Less(i, j int) bool { return h.idxLess(h.idx[j], h.idx[i]) }
func (h *idxTopK) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *idxTopK) Push(x any)         { h.idx = append(h.idx, x.(int)) }
func (h *idxTopK) Pop() any {
	last := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return last
}

// offer considers one row index.
func (h *idxTopK) offer(i int) {
	if len(h.idx) < h.k {
		heap.Push(h, i)
		return
	}
	if h.idxLess(i, h.idx[0]) {
		h.idx[0] = i
		heap.Fix(h, 0)
	}
}

// sortedIdx drains the heap into ascending key order.
func (h *idxTopK) sortedIdx() []int {
	out := make([]int, len(h.idx))
	for i := len(h.idx) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(int)
	}
	return out
}

// MemBytes reports the retained heap size (used by the fused operator's
// memory accounting).
func (h *topK) MemBytes() int {
	n := 48
	for _, row := range h.rows {
		n += 24
		for _, v := range row {
			n += v.Kind.Width() + len(v.S)
		}
	}
	return n
}

// Limit truncates to the first N tuples (after an optional Skip). On a
// factorized chunk it enumerates at most Skip+N tuples — constant-delay
// early exit — rather than de-factoring everything.
type Limit struct {
	N    int
	Skip int
}

// Name implements Operator.
func (o *Limit) Name() string { return "Limit" }

// Execute implements Operator.
func (o *Limit) Execute(ctx *Ctx, in *core.Chunk) (*core.Chunk, error) {
	if in.IsFlat() {
		fb := in.Flat
		lo := o.Skip
		if lo > fb.NumRows() {
			lo = fb.NumRows()
		}
		hi := lo + o.N
		if hi > fb.NumRows() {
			hi = fb.NumRows()
		}
		out := core.NewFlatBlock(fb.Names, fb.Kinds)
		out.Rows = fb.Rows[lo:hi]
		return ctx.FlatChunk(out), nil
	}
	cols := in.FT.Schema()
	refs, err := in.FT.Resolve(cols)
	if err != nil {
		return nil, err
	}
	kinds := make([]vector.Kind, len(refs))
	for i, r := range refs {
		kinds[i] = in.FT.Nodes()[r.Node].Block.Column(r.Col).Kind
	}
	out := core.NewFlatBlock(cols, kinds)
	seen := 0
	in.FT.Enumerate(refs, func(row []vector.Value) bool {
		seen++
		if seen <= o.Skip {
			return true
		}
		out.Append(row)
		return out.NumRows() < o.N
	})
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
// value encodings.
func rowKey(row []vector.Value) string {
	var sb strings.Builder
	for _, v := range row {
		s := v.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}
