package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// knowsGraph builds a single-label random digraph: n persons (ext 100+i),
// KNOWS edges with deliberately descending insert order so the seal has to
// sort the edge log.
func knowsGraph(t *testing.T, n int, prob float64, seed int64) (*Graph, []vector.VID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	cat := catalog.New()
	person, err := cat.AddLabel("Person")
	if err != nil {
		t.Fatal(err)
	}
	knows, err := cat.AddEdgeType("KNOWS")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(cat)
	vs := make([]vector.VID, n)
	for i := 0; i < n; i++ {
		v, err := g.AddVertex(person, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := n - 1; j >= 0; j-- {
			if i != j && rng.Float64() < prob {
				if err := g.AddEdge(knows, vs[i], vs[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, vs, person, knows
}

// naiveRowIntersect filters the one-source read of srcs[0] by membership in
// every other source's one-source read.
func naiveRowIntersect(v View, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, lbl catalog.LabelID) []vector.VID {
	var out []vector.VID
	for _, cand := range nbrs(v, srcs[0], et, dir, lbl) {
		ok := true
		for _, src := range srcs[1:] {
			if !slices.Contains(nbrs(v, src, et, dir, lbl), cand) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cand)
		}
	}
	return out
}

// oneSourceFill fills out with a separate one-source read per row, each run
// copied into rows the batch owns: the batch a per-source reader would
// assemble, with no piece viewing an image.
func oneSourceFill(v View, srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, lbl catalog.LabelID, out *Batch) {
	out.reset(len(srcs))
	p := packer{out: &out.merged}
	var one Batch
	sorted := true
	for i, s := range srcs {
		start := len(out.Pieces)
		v.NeighborsBatch([]vector.VID{s}, et, dir, lbl, false, &one)
		for _, pc := range one.Pieces {
			at := p.at
			p.reserve(pc.Len())
			p.rows(one.PieceVIDs(pc), nil, 0, pc.Len())
			out.Pieces = append(out.Pieces, Piece{Lo: int32(at), Hi: int32(p.at), Label: pc.Label})
		}
		out.Runs[i] = NeighborRun{Start: int32(start), End: int32(len(out.Pieces))}
		sorted = sorted && len(out.Pieces)-start <= 1
	}
	out.Sorted = sorted
	out.backs[0].vids = out.merged.vids[:p.at]
}

// TestIntersectorMatchesScalar sweeps sealed (explicitly, or by the first
// read) × scalar fill (oneSourceFill's owned rows, or the batch's image
// views) × intersect-knob combinations over random 2-way and 3-way fan-outs
// and checks every path yields the one-source reference byte for byte.
func TestIntersectorMatchesScalar(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		for _, scalarFill := range []bool{false, true} {
			for _, intersect := range []bool{false, true} {
				for _, k := range []int{2, 3} {
					name := fmt.Sprintf("sealed=%v/scalar=%v/intersect=%v/k=%d", sealed, scalarFill, intersect, k)
					t.Run(name, func(t *testing.T) {
						g, vs, person, knows := knowsGraph(t, 24, 0.3, 7)
						if sealed {
							g.SealCSR()
						}
						rng := rand.New(rand.NewSource(11))
						const rows = 40
						srcs := make([][]vector.VID, k)
						for side := range srcs {
							srcs[side] = make([]vector.VID, rows)
							for i := 0; i < rows; i++ {
								if side == 0 && i%13 == 0 {
									srcs[side][i] = vector.NilVID // invalid row
									continue
								}
								srcs[side][i] = vs[rng.Intn(len(vs))]
							}
						}
						fill := func(s []vector.VID, out *Batch) {
							if scalarFill {
								oneSourceFill(g, s, knows, catalog.Out, person, out)
							} else {
								g.NeighborsBatch(s, knows, catalog.Out, person, false, out)
							}
						}
						base := new(Batch)
						fill(srcs[0], base)
						probes := make([]*Batch, k-1)
						for p := range probes {
							probes[p] = new(Batch)
							fill(srcs[p+1], probes[p])
						}
						var x Intersector
						x.Reset(base, probes, srcs[1:], intersect)
						for i := 0; i < rows; i++ {
							got := x.Row(nil, i)
							var want []vector.VID
							if srcs[0][i] != vector.NilVID {
								rowSrcs := make([]vector.VID, k)
								for side := range srcs {
									rowSrcs[side] = srcs[side][i]
								}
								want = naiveRowIntersect(g, rowSrcs, knows, catalog.Out, person)
							}
							if fmt.Sprint(got) != fmt.Sprint(want) && !(len(got) == 0 && len(want) == 0) {
								t.Fatalf("row %d: got %v, want %v", i, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestIntersectorSetCacheReuse drives repeated owner rows through the hash
// fallback and checks results stay correct when the cached set is reused.
func TestIntersectorSetCacheReuse(t *testing.T) {
	g, vs, person, knows := knowsGraph(t, 12, 0.4, 3)
	rows := 20
	base0, probe0 := vs[1], vs[2]
	baseSrcs := make([]vector.VID, rows)
	probeSrcs := make([]vector.VID, rows)
	for i := range baseSrcs {
		baseSrcs[i] = base0
		probeSrcs[i] = probe0 // same owner every row: set built once
	}
	base, probe := new(Batch), new(Batch)
	g.NeighborsBatch(baseSrcs, knows, catalog.Out, person, false, base)
	g.NeighborsBatch(probeSrcs, knows, catalog.Out, person, false, probe)
	// An unsorted probe answers through its hash set even with
	// intersect=true.
	probe.Sorted = false
	var x Intersector
	x.Reset(base, []*Batch{probe}, [][]vector.VID{probeSrcs}, true)
	want := fmt.Sprint(naiveRowIntersect(g, []vector.VID{base0, probe0}, knows, catalog.Out, person))
	for i := 0; i < rows; i++ {
		if got := fmt.Sprint(x.Row(nil, i)); got != want && !(got == "[]" && want == "[]") {
			t.Fatalf("row %d: got %v, want %v", i, got, want)
		}
	}
}
