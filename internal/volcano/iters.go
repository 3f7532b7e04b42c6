package volcano

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ges/internal/catalog"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

// expandIter streams (row × neighbor) pairs one at a time — the canonical
// tuple-at-a-time Expand — buffering one input row's pairs.
type expandIter struct {
	view storage.View
	in   iter
	spec *op.Expand

	names []string
	ks    []vector.Kind

	fromIdx int
	epIdx   []int
	epKind  []vector.Kind
	pred    expr.Getter // the bound VertexPred; nil without one

	src   [1]vector.VID
	b     storage.Batch // the current row's neighbors: one one-source read
	queue [][]vector.Value
	pos   int
}

func newExpandIter(view storage.View, in iter, spec *op.Expand) (iter, error) {
	fromIdx, err := colIndex(in, spec.From)
	if err != nil {
		return nil, err
	}
	it := &expandIter{view: view, in: in, spec: spec, fromIdx: fromIdx}
	if it.pred, err = bindVertexPred(view, spec.VertexPred); err != nil {
		return nil, err
	}
	it.names = append(append([]string(nil), in.schema()...), spec.To)
	it.ks = append(append([]vector.Kind(nil), in.kinds()...), vector.KindVID)
	cat := view.Catalog()
	for _, ep := range spec.EdgeProps {
		pid, kind, ok := cat.EdgePropIndex(spec.Et, ep.Prop)
		if !ok {
			return nil, errNoEdgeProp(cat, spec.Et, ep.Prop)
		}
		it.epIdx = append(it.epIdx, int(pid))
		it.epKind = append(it.epKind, kind)
		it.names = append(it.names, ep.As)
		it.ks = append(it.ks, kind)
	}
	return it, nil
}

func errNoEdgeProp(cat *catalog.Catalog, et catalog.EdgeTypeID, prop string) error {
	return &opError{msg: "edge type " + cat.EdgeTypeName(et) + " has no property " + prop}
}

type opError struct{ msg string }

func (e *opError) Error() string { return "volcano: " + e.msg }

func (it *expandIter) schema() []string     { return it.names }
func (it *expandIter) kinds() []vector.Kind { return it.ks }

func (it *expandIter) next() ([]vector.Value, bool, error) {
	for it.pos == len(it.queue) {
		row, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.src[0] = row[it.fromIdx].AsVID()
		it.view.NeighborsBatch(it.src[:], it.spec.Et, it.spec.Dir, it.spec.DstLabel, len(it.epIdx) > 0, &it.b)
		it.queue, it.pos = it.queue[:0], 0
		for _, pc := range it.b.Pieces {
			cols, off := it.b.PieceCols(pc)
			for k, v := range it.b.PieceVIDs(pc) {
				if it.pred != nil && !it.pred(int(v)).AsBool() {
					continue
				}
				out := append(append(make([]vector.Value, 0, len(it.names)), row...), vector.VIDValue(v))
				for p, si := range it.epIdx {
					out = append(out, cols.Value(si, it.epKind[p], off+k))
				}
				it.queue = append(it.queue, out)
			}
		}
	}
	it.pos++
	return it.queue[it.pos-1], true, nil
}

// varExpandIter runs the bounded traversal per input row, buffering that
// row's frontier (tuple-at-a-time across rows).
type varExpandIter struct {
	in   iter
	spec *op.VarLengthExpand

	names   []string
	ks      []vector.Kind
	fromIdx int
	ctx     *op.Ctx

	curRow []vector.Value
	queue  []vector.VID
	pos    int
}

func newVarExpandIter(view storage.View, in iter, spec *op.VarLengthExpand) (iter, error) {
	fromIdx, err := colIndex(in, spec.From)
	if err != nil {
		return nil, err
	}
	return &varExpandIter{
		in: in, spec: spec, fromIdx: fromIdx,
		ctx:   &op.Ctx{View: view},
		names: append(append([]string(nil), in.schema()...), spec.To),
		ks:    append(append([]vector.Kind(nil), in.kinds()...), vector.KindVID),
	}, nil
}

// newExpandIntoIter filters tuples by closing-edge existence, one row at a
// time — the Volcano counterpart of the GES intersection semi-join. A
// hop-bounded closure runs VarLengthExpand's traversal from the row's From
// vertex and looks for its To vertex among what it emits.
func newExpandIntoIter(view storage.View, in iter, spec *op.ExpandInto) (iter, error) {
	fromIdx, err := colIndex(in, spec.From)
	if err != nil {
		return nil, err
	}
	toIdx, err := colIndex(in, spec.To)
	if err != nil {
		return nil, err
	}
	if spec.Hops() && spec.MinHops < 1 {
		return nil, &opError{msg: "expand-into: a zero-hop bound is not supported"}
	}
	var b storage.Batch
	path := &op.VarLengthExpand{Et: spec.Et, Dir: spec.Dir, DstLabel: spec.DstLabel, MinHops: spec.MinHops, MaxHops: spec.MaxHops}
	ctx := &op.Ctx{View: view}
	return &mapIter{
		in: in, names: in.schema(), ks: in.kinds(),
		fn: func(row []vector.Value) ([]vector.Value, bool) {
			from, to := row[fromIdx].AsVID(), row[toIdx].AsVID()
			found := false
			if spec.Hops() {
				path.Traverse(ctx, from, func(v vector.VID) { found = found || v == to })
			} else {
				found = slices.Contains(neighbors(view, &b, from, spec.Et, spec.Dir, spec.DstLabel), to)
			}
			if found {
				return row, true
			}
			return nil, false
		},
	}, nil
}

// crossIter extends every input row by every vertex of a label — NodeScan's
// From form.
type crossIter struct {
	in    iter
	vs    []vector.VID
	names []string
	ks    []vector.Kind

	row []vector.Value
	pos int
}

func newCrossIter(in iter, spec *op.NodeScan, vs []vector.VID) (iter, error) {
	if in == nil {
		return nil, &opError{msg: "NodeScan from " + spec.From + " needs an input"}
	}
	if _, err := colIndex(in, spec.From); err != nil {
		return nil, err
	}
	return &crossIter{in: in, vs: vs,
		names: append(append([]string(nil), in.schema()...), spec.Var),
		ks:    append(append([]vector.Kind(nil), in.kinds()...), vector.KindVID)}, nil
}

func (it *crossIter) schema() []string     { return it.names }
func (it *crossIter) kinds() []vector.Kind { return it.ks }

func (it *crossIter) next() ([]vector.Value, bool, error) {
	for it.row == nil || it.pos == len(it.vs) {
		row, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.row, it.pos = row, 0
	}
	it.pos++
	out := append(make([]vector.Value, 0, len(it.names)), it.row...)
	return append(out, vector.VIDValue(it.vs[it.pos-1])), true, nil
}

func (it *varExpandIter) schema() []string     { return it.names }
func (it *varExpandIter) kinds() []vector.Kind { return it.ks }

func (it *varExpandIter) next() ([]vector.Value, bool, error) {
	for {
		if it.curRow != nil && it.pos < len(it.queue) {
			v := it.queue[it.pos]
			it.pos++
			out := make([]vector.Value, 0, len(it.names))
			out = append(out, it.curRow...)
			out = append(out, vector.VIDValue(v))
			return out, true, nil
		}
		row, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.curRow = row
		it.queue = it.queue[:0]
		it.pos = 0
		it.spec.Traverse(it.ctx, row[it.fromIdx].AsVID(), func(v vector.VID) {
			it.queue = append(it.queue, v)
		})
	}
}

// vertexReader reads one property of one vertex at a time, or its external
// id under op.ExtIDProp, through a one-row GatherProps / GatherExtIDs call —
// as the oracle reads adjacency through one-source NeighborsBatch calls. It
// resolves each vertex's label itself (Catalog().PropLabels plus LabelOf),
// so it shares no property resolution with the engine it checks; the
// gathers it calls are held to Graph.Prop / ExtID by storage's gather
// contract test.
type vertexReader struct {
	view storage.View
	kind vector.Kind
	pids []int32 // per label; -1 where the label lacks the property; nil for the external id
	vid  [1]vector.VID
	ext  [1]int64
	out  *vector.Column
}

func newVertexReader(view storage.View, name string) (*vertexReader, error) {
	if name == op.ExtIDProp {
		return &vertexReader{view: view, kind: vector.KindInt64}, nil
	}
	labels, numLabels := view.Catalog().PropLabels(name)
	if len(labels) == 0 {
		return nil, fmt.Errorf("volcano: property %q not defined by any label", name)
	}
	r := &vertexReader{view: view, kind: labels[0].Kind, pids: make([]int32, numLabels)}
	for i := range r.pids {
		r.pids[i] = -1
	}
	for _, lp := range labels {
		if lp.Kind != r.kind {
			return nil, fmt.Errorf("volcano: property %q has conflicting kinds across labels", name)
		}
		r.pids[lp.Label] = int32(lp.Prop)
	}
	r.out = vector.NewColumn(name, r.kind)
	r.out.Grow(1)
	return r, nil
}

// read returns the value of vertex v: the typed zero when v's label lacks
// the property, and 0 as the external id of a VID the view holds no vertex
// for.
func (r *vertexReader) read(v vector.VID) vector.Value {
	r.vid[0] = v
	if r.pids == nil {
		r.ext[0] = 0
		r.view.GatherExtIDs(r.vid[:], nil, r.ext[:])
		return vector.Int64(r.ext[0])
	}
	zero := vector.Value{Kind: r.kind}
	l := r.view.LabelOf(v)
	if int(l) >= len(r.pids) || r.pids[l] < 0 {
		return zero
	}
	r.out.Set(0, zero)
	r.view.GatherProps(r.vid[:], l, catalog.PropID(r.pids[l]), nil, r.out)
	return r.out.Get(0)
}

// predBinding binds a fused predicate's names to reads of the vertex whose
// VID is the row index.
type predBinding struct{ view storage.View }

// Bind implements expr.Binding.
func (b predBinding) Bind(name string) (expr.Getter, error) {
	r, err := newVertexReader(b.view, name)
	if err != nil {
		return nil, err
	}
	return func(v int) vector.Value { return r.read(vector.VID(v)) }, nil
}

// bindVertexPred compiles an Expand's fused predicate for one vertex at a
// time; nil without one.
func bindVertexPred(view storage.View, p *op.VertexPred) (expr.Getter, error) {
	if p == nil {
		return nil, nil
	}
	return expr.Bind(p.Expr(), predBinding{view})
}

// projectIter appends fetched vertex properties per row.
type projectIter struct {
	in    iter
	names []string
	ks    []vector.Kind
	plans []projPlan
}

type projPlan struct {
	varIdx int
	r      *vertexReader
}

func newProjectIter(view storage.View, in iter, spec *op.ProjectProps) (iter, error) {
	it := &projectIter{in: in,
		names: append([]string(nil), in.schema()...),
		ks:    append([]vector.Kind(nil), in.kinds()...),
	}
	for _, s := range spec.Specs {
		vi, err := colIndex(in, s.Var)
		if err != nil {
			return nil, err
		}
		name := s.Prop
		if s.ExtID {
			name = op.ExtIDProp
		}
		r, err := newVertexReader(view, name)
		if err != nil {
			return nil, err
		}
		it.ks = append(it.ks, r.kind)
		it.names = append(it.names, s.As)
		it.plans = append(it.plans, projPlan{varIdx: vi, r: r})
	}
	return it, nil
}

func (it *projectIter) schema() []string     { return it.names }
func (it *projectIter) kinds() []vector.Kind { return it.ks }

func (it *projectIter) next() ([]vector.Value, bool, error) {
	row, ok, err := it.in.next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]vector.Value, 0, len(it.names))
	out = append(out, row...)
	for _, p := range it.plans {
		out = append(out, p.r.read(row[p.varIdx].AsVID()))
	}
	return out, true, nil
}

// newProjectExprIter appends one computed column per row.
func newProjectExprIter(in iter, spec *op.ProjectExpr) (iter, error) {
	cur := new([]vector.Value)
	get, err := bindRow(spec.Expr, in, cur)
	if err != nil {
		return nil, err
	}
	return &mapIter{
		in:    in,
		names: append(append([]string(nil), in.schema()...), spec.As),
		ks:    append(append([]vector.Kind(nil), in.kinds()...), spec.Kind),
		fn: func(row []vector.Value) ([]vector.Value, bool) {
			*cur = row
			out := make([]vector.Value, 0, len(row)+1)
			out = append(out, row...)
			out = append(out, get(0))
			return out, true
		},
	}, nil
}

// newFilterIter drops rows failing the predicate.
func newFilterIter(in iter, pred expr.Expr) (iter, error) {
	cur := new([]vector.Value)
	get, err := bindRow(pred, in, cur)
	if err != nil {
		return nil, err
	}
	return &mapIter{
		in: in, names: in.schema(), ks: in.kinds(),
		fn: func(row []vector.Value) ([]vector.Value, bool) {
			*cur = row
			if !get(0).AsBool() {
				return nil, false
			}
			return row, true
		},
	}, nil
}

// mapIter applies a per-row transform/filter.
type mapIter struct {
	in    iter
	names []string
	ks    []vector.Kind
	fn    func([]vector.Value) ([]vector.Value, bool)
}

func (it *mapIter) schema() []string     { return it.names }
func (it *mapIter) kinds() []vector.Kind { return it.ks }
func (it *mapIter) next() ([]vector.Value, bool, error) {
	for {
		row, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if out, keep := it.fn(row); keep {
			return out, true, nil
		}
	}
}

// limitIter implements LIMIT/SKIP.
type limitIter struct {
	in      iter
	skip, n int
	skipped int
	emitted int
}

func (it *limitIter) schema() []string     { return it.in.schema() }
func (it *limitIter) kinds() []vector.Kind { return it.in.kinds() }
func (it *limitIter) next() ([]vector.Value, bool, error) {
	for it.skipped < it.skip {
		_, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.skipped++
	}
	if it.emitted >= it.n {
		return nil, false, nil
	}
	row, ok, err := it.in.next()
	if err != nil || !ok {
		return nil, false, err
	}
	it.emitted++
	return row, true, nil
}

// newDistinctIter streams rows, dropping duplicates over the key columns.
func newDistinctIter(in iter, cols []string) (iter, error) {
	idx := make([]int, 0, len(cols))
	names, ks := in.schema(), in.kinds()
	if cols != nil {
		names = append([]string(nil), cols...)
		var kk []vector.Kind
		for _, c := range cols {
			i, err := colIndex(in, c)
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
			kk = append(kk, in.kinds()[i])
		}
		ks = kk
	}
	seen := map[string]bool{}
	return &mapIter{
		in: in, names: names, ks: ks,
		fn: func(row []vector.Value) ([]vector.Value, bool) {
			out := row
			if cols != nil {
				out = make([]vector.Value, len(idx))
				for k, i := range idx {
					out[k] = row[i]
				}
			}
			key := volKey(out)
			if seen[key] {
				return nil, false
			}
			seen[key] = true
			return out, true
		},
	}, nil
}

// newNarrowIter projects the schema down to the named columns.
func newNarrowIter(in iter, cols []string) (iter, error) {
	idx := make([]int, len(cols))
	ks := make([]vector.Kind, len(cols))
	for k, c := range cols {
		i, err := colIndex(in, c)
		if err != nil {
			return nil, err
		}
		idx[k] = i
		ks[k] = in.kinds()[i]
	}
	return &mapIter{
		in: in, names: append([]string(nil), cols...), ks: ks,
		fn: func(row []vector.Value) ([]vector.Value, bool) {
			out := make([]vector.Value, len(idx))
			for k, i := range idx {
				out[k] = row[i]
			}
			return out, true
		},
	}, nil
}

// volKey builds a collision-safe key for a row.
func volKey(row []vector.Value) string {
	var sb strings.Builder
	for _, v := range row {
		s := v.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// sortHeapRow pairs a row with sort keys for the bounded heap.
type sortKeyed struct {
	pos  int
	desc bool
}

// newSortIter drains the child, sorts (optionally bounded top-k), then
// streams.
func newSortIter(e *Engine, in iter, spec *op.OrderBy) (iter, error) {
	names, ks := in.schema(), in.kinds()
	keys := make([]sortKeyed, len(spec.Keys))
	for i, k := range spec.Keys {
		idx, err := colIndex(in, k.Col)
		if err != nil {
			return nil, err
		}
		keys[i] = sortKeyed{pos: idx, desc: k.Desc}
	}
	var rows [][]vector.Value
	for {
		row, ok, err := in.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	less := func(a, b []vector.Value) bool {
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
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if spec.Limit > 0 && len(rows) > spec.Limit {
		rows = rows[:spec.Limit]
	}
	out := &sliceIter{names: names, ks: ks, rows: rows}
	if spec.Cols != nil {
		return newNarrowIter(out, spec.Cols)
	}
	return out, nil
}

// bindRow compiles an expression against the iterator's schema, reading
// from the row currently pointed at by cur.
func bindRow(e expr.Expr, in iter, cur *[]vector.Value) (expr.Getter, error) {
	return expr.Bind(e, rowBinding{names: in.schema(), cur: cur})
}

// neighbors returns src's neighbors, read into b by a one-source
// NeighborsBatch — the oracle walks one row at a time. The run is valid
// until b's next read.
func neighbors(view storage.View, b *storage.Batch, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) []vector.VID {
	view.NeighborsBatch([]vector.VID{src}, et, dir, dst, false, b)
	return b.Run(0)
}

// intersectIter produces the n-way adjacency intersection one tuple at a
// time: per input row it walks side 0's adjacency and keeps neighbors
// present in every other side's adjacency — one-source reads, per-row hash
// sets, no galloping (the Volcano counterpart of the WCOJ expand).
type intersectIter struct {
	view storage.View
	in   iter
	spec *op.ExpandIntersect
	b    storage.Batch

	names []string
	ks    []vector.Kind
	idxs  []int // input column per side

	curRow []vector.Value
	queue  []vector.VID
	pos    int
}

func newExpandIntersectIter(view storage.View, in iter, spec *op.ExpandIntersect) (iter, error) {
	if len(spec.Sides) < 2 {
		return nil, fmt.Errorf("expand-intersect needs >= 2 sides, got %d", len(spec.Sides))
	}
	idxs := make([]int, len(spec.Sides))
	for i, s := range spec.Sides {
		idx, err := colIndex(in, s.Var)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	return &intersectIter{
		view: view, in: in, spec: spec, idxs: idxs,
		names: append(append([]string(nil), in.schema()...), spec.To),
		ks:    append(append([]vector.Kind(nil), in.kinds()...), vector.KindVID),
	}, nil
}

func (it *intersectIter) schema() []string     { return it.names }
func (it *intersectIter) kinds() []vector.Kind { return it.ks }

func (it *intersectIter) next() ([]vector.Value, bool, error) {
	for it.curRow == nil || it.pos == len(it.queue) {
		row, ok, err := it.in.next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.curRow, it.queue, it.pos = row, it.queue[:0], 0
		// Membership sets for the probe sides, rebuilt per row.
		sets := make([]map[vector.VID]bool, len(it.spec.Sides)-1)
		for p, s := range it.spec.Sides[1:] {
			sets[p] = map[vector.VID]bool{}
			for _, v := range neighbors(it.view, &it.b, row[it.idxs[p+1]].AsVID(), s.Et, s.Dir, s.DstLabel) {
				sets[p][v] = true
			}
		}
		s0 := it.spec.Sides[0]
	candidates:
		for _, v := range neighbors(it.view, &it.b, row[it.idxs[0]].AsVID(), s0.Et, s0.Dir, s0.DstLabel) {
			for _, set := range sets {
				if !set[v] {
					continue candidates
				}
			}
			it.queue = append(it.queue, v)
		}
	}
	it.pos++
	return append(append(make([]vector.Value, 0, len(it.names)), it.curRow...), vector.VIDValue(it.queue[it.pos-1])), true, nil
}
