package storage

import (
	"reflect"
	"sort"
	"testing"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// csrGraph builds a two-label graph with deliberately unsorted insert order
// so sealing has real work to do: persons 0..9 (ext 100..109), cities 0..2
// (ext 500..502), LIVES_IN edges with a `since` date prop.
func csrGraph(t *testing.T) (*Graph, []vector.VID, []vector.VID, catalog.LabelID, catalog.LabelID, catalog.EdgeTypeID) {
	t.Helper()
	g, person, city, livesIn := twoLabelGraph(t)
	var ps, cs []vector.VID
	for i := 0; i < 10; i++ {
		v, err := g.AddVertex(person, int64(100+i), vector.String_("p"), vector.Int64(int64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, v)
	}
	for i := 0; i < 3; i++ {
		v, err := g.AddVertex(city, int64(500+i), vector.String_("c"))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, v)
	}
	// Descending destination order per source, so pre-seal adjacency is
	// reverse-sorted.
	for pi := range ps {
		for ci := len(cs) - 1; ci >= 0; ci-- {
			if (pi+ci)%2 == 0 {
				if err := g.AddEdge(livesIn, ps[pi], cs[ci], vector.Date(int64(1000*pi+ci))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, ps, cs, person, city, livesIn
}

// flattenSegs concatenates scalar segments in order.
func flattenSegs(segs []Segment) []vector.VID {
	var out []vector.VID
	for _, s := range segs {
		out = append(out, s.VIDs...)
	}
	return out
}

// flattenBatch concatenates batch runs in order.
func flattenBatch(b *Batch) []vector.VID {
	var out []vector.VID
	for i := range b.Runs {
		out = append(out, b.Run(i)...)
	}
	return out
}

func TestSealCSRSortsNeighbors(t *testing.T) {
	g, ps, _, _, city, livesIn := csrGraph(t)
	before := map[vector.VID][]vector.VID{}
	for _, p := range ps {
		before[p] = append([]vector.VID(nil), flattenSegs(g.Neighbors(nil, p, livesIn, catalog.Out, city, false))...)
	}
	if g.CSRSealed() {
		t.Fatal("graph sealed before SealCSR")
	}
	if n := g.SealCSR(); n == 0 {
		t.Fatal("SealCSR sealed no families")
	}
	if !g.CSRSealed() {
		t.Fatal("CSRSealed false after SealCSR")
	}
	for _, p := range ps {
		segs := g.Neighbors(nil, p, livesIn, catalog.Out, city, false)
		after := flattenSegs(segs)
		if !sort.SliceIsSorted(after, func(i, j int) bool { return after[i] < after[j] }) {
			t.Fatalf("src %d: sealed neighbors not sorted: %v", p, after)
		}
		for _, s := range segs {
			if !s.Sorted {
				t.Fatalf("src %d: sealed segment not flagged Sorted", p)
			}
		}
		want := append([]vector.VID(nil), before[p]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("src %d: sealed neighbor set changed: got %v want %v", p, after, want)
		}
	}
}

func TestSealCSRKeepsEdgePropsAligned(t *testing.T) {
	g, ps, cs, _, city, livesIn := csrGraph(t)
	// Record (dst, since) pairs per source before sealing.
	type edge struct {
		dst   vector.VID
		since int64
	}
	want := map[vector.VID][]edge{}
	for _, p := range ps {
		for _, s := range g.Neighbors(nil, p, livesIn, catalog.Out, city, true) {
			for k, d := range s.VIDs {
				want[p] = append(want[p], edge{dst: d, since: s.PropI64[0][k]})
			}
		}
	}
	g.SealCSR()
	for _, p := range ps {
		var got []edge
		for _, s := range g.Neighbors(nil, p, livesIn, catalog.Out, city, true) {
			for k, d := range s.VIDs {
				got = append(got, edge{dst: d, since: s.PropI64[0][k]})
			}
		}
		w := append([]edge(nil), want[p]...)
		sort.Slice(w, func(i, j int) bool { return w[i].dst < w[j].dst })
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("src %d: props misaligned after seal: got %v want %v", p, got, w)
		}
	}
	_ = cs
}

// batchMatchesScalar asserts the NeighborsBatch byte-identity contract for
// one parameterization.
func batchMatchesScalar(t *testing.T, v View, srcs []vector.VID, et catalog.EdgeTypeID,
	dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) {
	t.Helper()
	var b Batch
	v.NeighborsBatch(srcs, et, dir, dstLabel, withProps, &b)
	if len(b.Runs) != len(srcs) {
		t.Fatalf("got %d runs for %d srcs", len(b.Runs), len(srcs))
	}
	for i, src := range srcs {
		var want []vector.VID
		var wantProps [][]int64
		if src != vector.NilVID {
			for _, s := range v.Neighbors(nil, src, et, dir, dstLabel, withProps) {
				want = append(want, s.VIDs...)
				for pi, col := range s.PropI64 {
					if len(wantProps) <= pi {
						wantProps = append(wantProps, nil)
					}
					if col != nil {
						wantProps[pi] = append(wantProps[pi], col...)
					}
				}
			}
		}
		got := b.Run(i)
		if len(got) != len(want) {
			t.Fatalf("src %d (dir=%v dst=%v): run length %d want %d", src, dir, dstLabel, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("src %d: run[%d] = %d want %d", src, k, got[k], want[k])
			}
		}
		if withProps {
			r := b.Runs[i]
			for pi := range wantProps {
				for k := range want {
					if b.PropI64[pi] == nil {
						t.Fatalf("src %d: batch missing i64 prop column %d", src, pi)
					}
					if got, w := b.PropI64[pi][int(r.Start)+k], wantProps[pi][k]; got != w {
						t.Fatalf("src %d: prop[%d][%d] = %d want %d", src, pi, k, got, w)
					}
				}
			}
		}
	}
}

func TestNeighborsBatchMatchesScalar(t *testing.T) {
	g, ps, cs, person, city, livesIn := csrGraph(t)
	srcs := append(append([]vector.VID{vector.NilVID}, ps...), vector.NilVID)

	for _, sealed := range []bool{false, true} {
		if sealed {
			g.CompactAdjacency()
			g.SealCSR()
		}
		name := map[bool]string{false: "unsealed", true: "sealed"}[sealed]
		t.Run(name, func(t *testing.T) {
			batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, city, false)
			batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, city, true)
			batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, AnyLabel, false)
			batchMatchesScalar(t, g, srcs, livesIn, catalog.Both, city, false)
			batchMatchesScalar(t, g, cs, livesIn, catalog.In, person, true)
			// Mixed-label source list bails to the reference path.
			mixed := append(append([]vector.VID(nil), ps[:3]...), cs...)
			batchMatchesScalar(t, g, mixed, livesIn, catalog.Out, city, false)
			// Empty src list.
			batchMatchesScalar(t, g, nil, livesIn, catalog.Out, city, false)
		})
	}
}

func TestNeighborsBatchSharedZeroCopy(t *testing.T) {
	g, ps, _, _, city, livesIn := csrGraph(t)
	g.SealCSR()
	var b Batch
	g.NeighborsBatch(ps, livesIn, catalog.Out, city, false, &b)
	if !b.Shared {
		t.Fatal("sealed single-family batch should share the CSR array")
	}
	if !b.Sorted {
		t.Fatal("shared batch should be Sorted")
	}
	// Unsealed path must not claim sharing.
	g2, ps2, _, _, city2, livesIn2 := csrGraph(t)
	var b2 Batch
	g2.NeighborsBatch(ps2, livesIn2, catalog.Out, city2, false, &b2)
	if b2.Shared {
		t.Fatal("unsealed batch must not be Shared")
	}
	_ = city2
}

func TestCSRPersistsAcrossMutation(t *testing.T) {
	g, ps, cs, _, city, livesIn := csrGraph(t)
	g.SealCSR()
	if !g.CSRSealed() {
		t.Fatal("not sealed")
	}
	// Removing an edge lands in the delta overlay: the snapshot stays
	// published and reads reflect the delete immediately.
	if !g.DeleteEdge(livesIn, ps[0], cs[0]) {
		t.Fatal("DeleteEdge failed")
	}
	if !g.CSRSealed() {
		t.Fatal("snapshot must persist across DeleteEdge")
	}
	for _, d := range flattenSegs(g.Neighbors(nil, ps[0], livesIn, catalog.Out, city, false)) {
		if d == cs[0] {
			t.Fatal("deleted edge still visible through the overlay")
		}
	}
	srcs := append([]vector.VID(nil), ps...)
	batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, city, true)

	// Adding an edge keeps the snapshot too, and the merged batch stays
	// sorted (never Shared while the delta is live).
	if err := g.AddEdge(livesIn, ps[0], cs[0], vector.Date(7)); err != nil {
		t.Fatal(err)
	}
	if !g.CSRSealed() {
		t.Fatal("snapshot must persist across AddEdge")
	}
	var b Batch
	g.NeighborsBatch(srcs, livesIn, catalog.Out, city, true, &b)
	if !b.Sorted || b.Shared {
		t.Fatalf("overlay batch Sorted=%v Shared=%v, want Sorted, not Shared", b.Sorted, b.Shared)
	}
	batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, city, true)

	// A quiesced re-seal after compaction must agree with what the overlay
	// already served.
	g.CompactAdjacency()
	g.SealCSR()
	batchMatchesScalar(t, g, srcs, livesIn, catalog.Out, city, true)

}

func TestNeighborsBatchEmptyFamily(t *testing.T) {
	g, person, city, livesIn := twoLabelGraph(t)
	var ps []vector.VID
	for i := 0; i < 4; i++ {
		v, err := g.AddVertex(person, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, v)
	}
	// No edges at all: the LIVES_IN family does not even exist.
	var b Batch
	g.NeighborsBatch(ps, livesIn, catalog.Out, city, false, &b)
	if len(b.Runs) != len(ps) {
		t.Fatalf("runs = %d", len(b.Runs))
	}
	for i := range b.Runs {
		if len(b.Run(i)) != 0 {
			t.Fatalf("expected empty run %d", i)
		}
	}
	if !b.Sorted {
		t.Fatal("all-empty batch is trivially sorted")
	}
	g.SealCSR() // zero families: must not panic
	batchMatchesScalar(t, g, ps, livesIn, catalog.Out, city, false)
}

func TestMemBytesAccountsCSR(t *testing.T) {
	g, _, _, _, _, _ := csrGraph(t)
	before := g.MemBytes()
	if before <= 0 {
		t.Fatal("MemBytes must be positive")
	}
	g.SealCSR()
	after := g.MemBytes()
	if after <= before {
		t.Fatalf("MemBytes must grow after sealing: before=%d after=%d", before, after)
	}
}
