package testgraph

import (
	"fmt"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/testgraph/edgemodel"
	"ges/internal/vector"
)

// Pieces returns b, a read of srcs over edge type et, as edge-model pieces:
// one per batch piece, each edge with its properties when withProps (the read
// requested them). Dir and Ver stay zero: a batch does not carry them.
func Pieces(v storage.View, b *storage.Batch, srcs []vector.VID, et catalog.EdgeTypeID, withProps bool) []edgemodel.Piece {
	var defs []catalog.PropDef
	if withProps {
		defs = v.Catalog().EdgeTypeProps(et)
	}
	var out []edgemodel.Piece
	for i, r := range b.Runs {
		for _, p := range b.Pieces[r.Start:r.End] {
			pc := edgemodel.Piece{Row: i, Label: p.Label}
			cols, off := b.PieceCols(p)
			for k, n := range b.PieceVIDs(p) {
				e := edgemodel.Edge{Et: et, Src: srcs[i], Dst: n, SrcLabel: v.LabelOf(srcs[i]), DstLabel: p.Label}
				for q, d := range defs {
					e.Props = append(e.Props, cols.Value(q, d.Kind, off+k))
				}
				pc.Edges = append(pc.Edges, e)
			}
			out = append(out, pc)
		}
	}
	return out
}

// Mismatch describes how b, a read of srcs over et, differs from the pieces
// and Sorted flag an edge model gives for the same read — labels, neighbours
// and, with props, every edge property — or returns "" when it does not.
func Mismatch(v storage.View, b *storage.Batch, srcs []vector.VID, et catalog.EdgeTypeID, withProps bool,
	want []edgemodel.Piece, sorted bool) string {
	if len(b.Runs) != len(srcs) {
		return fmt.Sprintf("%d runs for %d sources", len(b.Runs), len(srcs))
	}
	var kinds []vector.Kind
	if withProps {
		for _, d := range v.Catalog().EdgeTypeProps(et) {
			kinds = append(kinds, d.Kind)
		}
	}
	if got, want := edgemodel.Lines(Pieces(v, b, srcs, et, withProps), kinds), edgemodel.Lines(want, kinds); b.Sorted != sorted || !slices.Equal(got, want) {
		return fmt.Sprintf("Sorted=%v, model Sorted=%v; pieces\n%v\nwant\n%v", b.Sorted, sorted, got, want)
	}
	return ""
}

// CheckBatch asserts the NeighborsBatch contract for one request on a
// quiesced view against m, the edge-list model of the view's graph: the batch
// holds the model's pieces at the view's version, and is Sorted exactly when
// the model has no run of two pieces (Mismatch). It returns the batch.
func CheckBatch(t testing.TB, m *edgemodel.Model, v storage.View, srcs []vector.VID, et catalog.EdgeTypeID,
	dir catalog.Direction, dst catalog.LabelID, withProps bool) *storage.Batch {
	t.Helper()
	var b storage.Batch
	v.NeighborsBatch(srcs, et, dir, dst, withProps, &b)
	ver := storage.Latest
	if vv, ok := v.(storage.VersionView); ok {
		ver = vv.Version()
	}
	want, sorted := m.Read(srcs, et, dir, dst, ver)
	if msg := Mismatch(v, &b, srcs, et, withProps, want, sorted); msg != "" {
		t.Fatalf("et=%d dir=%v dst=%v: %s", et, dir, dst, msg)
	}
	return &b
}

// NeighborVIDs returns src's neighbours over (et, dir, dst) as v reads them:
// one one-source NeighborsBatch, its run copied.
func NeighborVIDs(v storage.View, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) []vector.VID {
	var b storage.Batch
	v.NeighborsBatch([]vector.VID{src}, et, dir, dst, false, &b)
	return slices.Clone(b.Run(0))
}

// Edges returns src's edges over (et, dir, dst) as v reads them, in run
// order, each with its properties in schema order (Dst is the neighbour).
func Edges(v storage.View, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID) []edgemodel.Edge {
	var b storage.Batch
	v.NeighborsBatch([]vector.VID{src}, et, dir, dst, true, &b)
	var out []edgemodel.Edge
	for _, p := range Pieces(v, &b, []vector.VID{src}, et, true) {
		out = append(out, p.Edges...)
	}
	return out
}
