package stats

import (
	"testing"
	"time"

	"ges/internal/catalog"
)

func TestLogCellAndBounds(t *testing.T) {
	cases := []struct{ d, cell int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5},
	}
	for _, c := range cases {
		if got := logCell(c.d); got != c.cell {
			t.Errorf("logCell(%d) = %d, want %d", c.d, got, c.cell)
		}
		lo, hi := cellBounds(logCell(c.d))
		if c.d < lo || c.d > hi {
			t.Errorf("degree %d outside its cell bounds [%d,%d]", c.d, lo, hi)
		}
	}
}

func TestHistogramEquiDepth(t *testing.T) {
	// 800 sources of degree 1, 100 of degree 4, 8 of degree 100: the heavy
	// cell must not merge with the tail, and bucket counts must sum back.
	var b Builder
	b = *NewBuilder(1)
	k := FamKey{Dir: catalog.Out}
	for i := 0; i < 800; i++ {
		b.AddDegree(k, 1)
	}
	for i := 0; i < 100; i++ {
		b.AddDegree(k, 4)
	}
	for i := 0; i < 8; i++ {
		b.AddDegree(k, 100)
	}
	s := b.Finish(time.Millisecond)
	fam := s.Families[k]
	if fam.Sources != 908 || fam.MaxDegree != 100 {
		t.Fatalf("sources/max = %d/%d, want 908/100", fam.Sources, fam.MaxDegree)
	}
	if fam.Edges != 800+400+800 {
		t.Fatalf("edges = %d, want 2000", fam.Edges)
	}
	h := fam.Hist
	if h.Sources() != 908 {
		t.Fatalf("histogram sources = %d, want 908", h.Sources())
	}
	if len(h.Buckets) < 2 || len(h.Buckets) > histDepth {
		t.Fatalf("bucket count = %d, want 2..%d", len(h.Buckets), histDepth)
	}
	for i, bk := range h.Buckets {
		if bk.Lo > bk.Hi || bk.Count <= 0 {
			t.Fatalf("bucket %d malformed: %+v", i, bk)
		}
		if i > 0 && bk.Lo <= h.Buckets[i-1].Hi {
			t.Fatalf("bucket %d overlaps previous: %+v after %+v", i, bk, h.Buckets[i-1])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	b := NewBuilder(1)
	k := FamKey{Dir: catalog.Out}
	for i := 0; i < 90; i++ {
		b.AddDegree(k, 1)
	}
	for i := 0; i < 10; i++ {
		b.AddDegree(k, 64)
	}
	h := b.Finish(0).Families[k].Hist

	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("median degree bound = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q < 33 {
		t.Fatalf("p99 degree bound = %d, want >= 33", q)
	}
	if h.Quantile(0.5) > h.Quantile(0.9) || h.Quantile(0.9) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Sources() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must estimate zeros")
	}
}

func TestBuilderSnapshotTotals(t *testing.T) {
	b := NewBuilder(7)
	b.Label(0, 100)
	b.Label(1, 50)
	out := FamKey{Src: 0, Et: 0, Dst: 1, Dir: catalog.Out}
	in := FamKey{Src: 1, Et: 0, Dst: 0, Dir: catalog.In}
	b.AddDegree(out, 3)
	b.AddDegree(out, 0) // ignored
	b.AddDegree(in, 2)
	b.AddDegree(in, 1)
	s := b.Finish(2 * time.Millisecond)

	if s.Epoch != 7 || s.Build != 2*time.Millisecond {
		t.Fatalf("epoch/build = %d/%v", s.Epoch, s.Build)
	}
	if s.Vertices != 150 || s.Label(0) != 100 || s.Label(1) != 50 {
		t.Fatalf("vertices/labels = %d/%d/%d", s.Vertices, s.Label(0), s.Label(1))
	}
	// Only Out-direction families count toward the directed edge total.
	if s.Edges != 3 {
		t.Fatalf("edges = %d, want 3 (Out only)", s.Edges)
	}
	if f, ok := s.Family(in); !ok || f.Sources != 2 || f.Edges != 3 {
		t.Fatalf("in family = %+v, %v", f, ok)
	}
	keys := s.FamKeys()
	if len(keys) != 2 || keys[0] != out || keys[1] != in {
		t.Fatalf("FamKeys order = %v", keys)
	}
}

func TestNilSnapshotAccessors(t *testing.T) {
	var s *Snapshot
	if s.Label(0) != 0 {
		t.Fatal("nil Label")
	}
	if _, ok := s.Family(FamKey{}); ok {
		t.Fatal("nil Family")
	}
	if _, ok := s.Column(ColKey{}); ok {
		t.Fatal("nil Column")
	}
	if s.FamKeys() != nil {
		t.Fatal("nil FamKeys")
	}
}
