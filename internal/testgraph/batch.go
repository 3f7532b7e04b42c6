package testgraph

import (
	"fmt"
	"slices"
	"testing"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// BatchPieces renders b one line per piece, for comparisons: the request
// row, the piece's destination label, its neighbors and, when edge
// properties were requested, each property's values.
func BatchPieces(b *storage.Batch, withProps bool) []string {
	var out []string
	for i, r := range b.Runs {
		for _, p := range b.Pieces[r.Start:r.End] {
			line := fmt.Sprintf("row %d label %d %v", i, p.Label, b.PieceVIDs(p))
			if withProps {
				cols, off := b.PieceCols(p)
				for q := range cols.I64 {
					switch {
					case cols.I64[q] != nil:
						line += fmt.Sprint(" ", cols.I64[q][off:off+p.Len()])
					case cols.F64[q] != nil:
						line += fmt.Sprint(" ", cols.F64[q][off:off+p.Len()])
					case cols.Str[q] != nil:
						line += fmt.Sprintf(" %q", cols.Str[q][off:off+p.Len()])
					}
				}
			}
			out = append(out, line)
		}
	}
	return out
}

// CheckBatch asserts the NeighborsBatch contract for one request on a
// quiesced view and returns the batch. It equals the scalar reference
// (storage.AppendNeighborsBatch) piece for piece — label, neighbors and,
// with props, every edge property — with Sorted exactly when the reference
// is. And a piece aliases storage exactly when the scalar read of its family
// run does: a run the delta leaves alone is a view of the image (two scalar
// reads return it at one address), a changed one is merged into owned rows.
func CheckBatch(t testing.TB, v storage.View, srcs []vector.VID, et catalog.EdgeTypeID,
	dir catalog.Direction, dst catalog.LabelID, withProps bool) *storage.Batch {
	t.Helper()
	var b, ref storage.Batch
	v.NeighborsBatch(srcs, et, dir, dst, withProps, &b)
	storage.AppendNeighborsBatch(v, srcs, et, dir, dst, withProps, &ref)
	if len(b.Runs) != len(srcs) || b.Sorted != ref.Sorted {
		t.Fatalf("et=%d dir=%v dst=%v: %d runs for %d sources, Sorted=%v, reference Sorted=%v",
			et, dir, dst, len(b.Runs), len(srcs), b.Sorted, ref.Sorted)
	}
	if got, want := BatchPieces(&b, withProps), BatchPieces(&ref, withProps); !slices.Equal(got, want) {
		t.Fatalf("et=%d dir=%v dst=%v: pieces\n%v\nwant\n%v", et, dir, dst, got, want)
	}
	for i, s := range srcs {
		if s == vector.NilVID {
			continue
		}
		segs, again := v.Neighbors(nil, s, et, dir, dst, false), v.Neighbors(nil, s, et, dir, dst, false)
		r := b.Runs[i]
		for k, p := range b.Pieces[r.Start:r.End] {
			view := &segs[k].VIDs[0] == &again[k].VIDs[0]
			if aliased := &b.PieceVIDs(p)[0] == &segs[k].VIDs[0]; aliased != view {
				t.Fatalf("et=%d dir=%v dst=%v: src %d piece %d aliases the image: %v, its scalar run: %v",
					et, dir, dst, s, k, aliased, view)
			}
		}
	}
	return &b
}
