package volcano

import (
	"sort"

	"ges/internal/core"
	"ges/internal/op"
	"ges/internal/storage"
	"ges/internal/vector"
)

// newAggIter drains the child and groups it; with keys/limit set it also
// applies the top-k (interpreting a fused AggregateProjectTop plan).
func newAggIter(e *Engine, in iter, groupBy []string, aggs []op.AggSpec, keys []op.SortKey, limit int) (iter, error) {
	fb := core.NewFlatBlock(in.schema(), in.kinds())
	for {
		row, ok, err := in.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		fb.Append(row)
	}
	grouped, err := GroupRows(fb, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	rows := grouped.Rows
	if len(keys) > 0 {
		idx := make([]sortKeyed, len(keys))
		for i, k := range keys {
			pos := grouped.ColIndex(k.Col)
			if pos < 0 {
				return nil, &opError{msg: "no sort column " + k.Col}
			}
			idx[i] = sortKeyed{pos: pos, desc: k.Desc}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for _, k := range idx {
				c := vector.Compare(rows[a][k.pos], rows[b][k.pos])
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return &sliceIter{names: grouped.Names, ks: grouped.Kinds, rows: rows}, nil
}

// GroupRows is the oracle's own grouping of a flat block, independent of the
// engine's group table: each group keeps its rows under their rowKey-encoded
// key (volKey), and the groups come out in ascending key order, as the
// engine's do.
func GroupRows(fb *core.FlatBlock, groupBy []string, aggs []op.AggSpec) (*core.FlatBlock, error) {
	ng := len(groupBy)
	names := append(append([]string(nil), groupBy...), make([]string, len(aggs))...)
	idx := make([]int, len(names))           // group columns, then arguments (-1: COUNT(*))
	args := make([]vector.Kind, len(names))  // their kinds
	kinds := make([]vector.Kind, len(names)) // output kinds
	for i, name := range names {
		args[i] = vector.KindInt64
		if i >= ng {
			names[i], name, idx[i] = aggs[i-ng].As, aggs[i-ng].Arg, -1
		}
		if name != "" {
			if idx[i] = fb.ColIndex(name); idx[i] < 0 {
				return nil, &opError{msg: "no column " + name}
			}
			args[i] = fb.Kinds[idx[i]]
		}
		switch kinds[i] = args[i]; {
		case i >= ng && (aggs[i-ng].Func == op.Count || aggs[i-ng].Func == op.CountDistinct):
			kinds[i] = vector.KindInt64
		case i >= ng && aggs[i-ng].Func == op.Avg:
			kinds[i] = vector.KindFloat64
		}
	}
	groups := map[string][][]vector.Value{}
	if ng == 0 {
		groups[""] = nil // a global aggregate has its one row even over no input
	}
	for _, row := range fb.Rows {
		k := volKey(pick(row, idx[:ng]))
		groups[k] = append(groups[k], row)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := core.NewFlatBlock(names, kinds)
	for _, k := range keys {
		rows := groups[k]
		var row []vector.Value
		if len(rows) > 0 {
			row = pick(rows[0], idx[:ng])
		}
		for j, a := range aggs {
			row = append(row, foldGroup(a, rows, idx[ng+j], args[ng+j]))
		}
		out.Append(row)
	}
	return out, nil
}

// foldGroup computes aggregate a over a group's rows, reading argument
// position p (-1: COUNT(*)) of kind argKind.
func foldGroup(a op.AggSpec, rows [][]vector.Value, p int, argKind vector.Kind) vector.Value {
	var sumI int64
	var sumF float64
	var best vector.Value
	seen := map[string]bool{}
	for i, row := range rows {
		var v vector.Value
		if p >= 0 {
			v = row[p]
		}
		sumI, sumF, seen[v.String()] = sumI+v.I, sumF+v.F, true
		if c := vector.Compare(v, best); i == 0 || (a.Func == op.Min && c < 0) || (a.Func == op.Max && c > 0) {
			best = v
		}
	}
	n, float := int64(len(rows)), argKind == vector.KindFloat64
	switch {
	case a.Func == op.Count:
		return vector.Int64(n)
	case a.Func == op.CountDistinct:
		return vector.Int64(int64(len(seen)))
	case a.Func == op.Min || a.Func == op.Max:
		return best
	case a.Func == op.Sum && float:
		return vector.Float64(sumF)
	case a.Func == op.Sum:
		return vector.Int64(sumI)
	case n == 0:
		return vector.Float64(0)
	case float:
		return vector.Float64(sumF / float64(n))
	}
	return vector.Float64(float64(sumI) / float64(n))
}

// pick returns the values of row at positions idx.
func pick(row []vector.Value, idx []int) []vector.Value {
	out := make([]vector.Value, len(idx))
	for i, j := range idx {
		out[i] = row[j]
	}
	return out
}

// newPatternCountIter appends to every input row the number of rows the
// pattern's path yields from that row alone.
func newPatternCountIter(e *Engine, view storage.View, in iter, spec *op.PatternCount) (iter, error) {
	if _, err := colIndex(in, spec.From); err != nil {
		return nil, err
	}
	return &patternCountIter{e: e, view: view, in: in, spec: spec,
		names: append(append([]string(nil), in.schema()...), spec.As),
		ks:    append(append([]vector.Kind(nil), in.kinds()...), vector.KindInt64),
	}, nil
}

type patternCountIter struct {
	e     *Engine
	view  storage.View
	in    iter
	spec  *op.PatternCount
	names []string
	ks    []vector.Kind
}

func (it *patternCountIter) schema() []string     { return it.names }
func (it *patternCountIter) kinds() []vector.Kind { return it.ks }

func (it *patternCountIter) next() ([]vector.Value, bool, error) {
	row, ok, err := it.in.next()
	if err != nil || !ok {
		return nil, false, err
	}
	one := &sliceIter{names: it.in.schema(), ks: it.in.kinds(), rows: [][]vector.Value{row}}
	path, err := it.e.build(it.view, one, it.spec.Path)
	if err != nil {
		return nil, false, err
	}
	n := int64(0)
	for {
		_, ok, err := path.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		n++
	}
	return append(append(make([]vector.Value, 0, len(it.names)), row...), vector.Int64(n)), true, nil
}
