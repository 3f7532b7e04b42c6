package queries

import (
	"reflect"
	"sort"
	"testing"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/vector"
)

// ic14Unmemoized is IC14 as it was before the per-query weight memo: every
// edge of every path weighed afresh. It is the reference the memoized
// procedure must reproduce row for row, in order.
func ic14Unmemoized(view storage.View, h *ldbc.Handles, p Params) []vector.Value {
	src, ok1 := view.VertexByExt(h.Person, p.Int("person1Id"))
	dst, ok2 := view.VertexByExt(h.Person, p.Int("person2Id"))
	if !ok1 || !ok2 {
		return nil
	}
	distTo := bfsDistances(view, h, dst, -1)
	total, ok := distTo[src]
	if !ok {
		return nil
	}
	var paths [][]vector.VID
	var walk func(u vector.VID, path []vector.VID)
	walk = func(u vector.VID, path []vector.VID) {
		if len(paths) >= 1000 {
			return
		}
		if u == dst {
			paths = append(paths, append([]vector.VID(nil), path...))
			return
		}
		var nexts []vector.VID
		for _, seg := range view.Neighbors(nil, u, h.Knows, catalog.Out, h.Person, false) {
			for _, v := range seg.VIDs {
				if d, ok := distTo[v]; ok && d == distTo[u]-1 {
					nexts = append(nexts, v)
				}
			}
		}
		for _, v := range nexts {
			walk(v, append(path, v))
		}
	}
	walk(src, []vector.VID{src})
	weights := make([]float64, len(paths))
	for i, path := range paths {
		for k := 0; k+1 < len(path); k++ {
			weights[i] += interactionWeight(view, h, path[k], path[k+1])
		}
	}
	order := make([]int, len(paths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	var rows []vector.Value
	for _, i := range order {
		rows = append(rows, vector.Int64(int64(total)), vector.Float64(weights[i]))
	}
	return rows
}

// TestIC14MatchesUnmemoized: weighing each person pair once per query
// changes no row and no order — the floats are bit-identical, since each
// path still adds its weights in path order.
func TestIC14MatchesUnmemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("generates simSF 1")
	}
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pg := ds.NewParamGen(14)
	paths := 0
	for draw := 0; draw < 200; draw++ {
		p := IC14.GenParams(ds, pg)
		fb, err := IC14.Proc(ds.Graph, ds.H, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flatValues(fb), ic14Unmemoized(ds.Graph, ds.H, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d (%v): rows %v, want %v", draw, p, got, want)
		}
		paths += fb.NumRows()
	}
	if paths < 200 {
		t.Fatalf("200 draws found %d paths; the comparison is near vacuous", paths)
	}
}

// flatValues lists a flat block's values row by row.
func flatValues(fb *core.FlatBlock) []vector.Value {
	var out []vector.Value
	for _, row := range fb.Rows {
		out = append(out, row...)
	}
	return out
}
