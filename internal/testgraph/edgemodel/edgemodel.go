// Package edgemodel is the reference the batched adjacency read is checked
// against: the edges a graph was given, in the order it was given them, read
// by brute force. It does not import internal/storage, so a test comparing
// View.NeighborsBatch with it compares two implementations that share no
// code.
package edgemodel

import (
	"fmt"
	"slices"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// AnyLabel is the wildcard destination label, storage.AnyLabel's value.
const AnyLabel = catalog.LabelID(0xFFFF)

// Edge is one directed edge as a graph accepted it: its type, its endpoints
// and their labels, the commit version that wrote it (0 for the bulk load)
// and its property values in the edge type's schema order.
type Edge struct {
	Et                 catalog.EdgeTypeID
	Src, Dst           vector.VID
	SrcLabel, DstLabel catalog.LabelID
	Ver                uint64
	Props              []vector.Value
}

// Model is an edge list, in arrival order.
type Model struct {
	Edges []Edge
}

// Add appends edges a graph accepted, in the order it accepted them.
func (m *Model) Add(es ...Edge) { m.Edges = append(m.Edges, es...) }

// Piece is one family run of a read: the request row, the family's
// direction and destination label, and the run's edges (an In run's
// reversed, so Dst is always the neighbour).
type Piece struct {
	Row   int
	Dir   catalog.Direction
	Label catalog.LabelID
	Edges []Edge
}

// oriented returns e as a run in direction d sees it: from Src to Dst.
func oriented(e Edge, d catalog.Direction) Edge {
	if d == catalog.In {
		e.Src, e.Dst, e.SrcLabel, e.DstLabel = e.Dst, e.Src, e.DstLabel, e.SrcLabel
	}
	return e
}

// Read returns the pieces a read of srcs over (et, dir, dst) at version ver
// must hold — an edge is visible iff its Ver is at most ver — and whether the
// batch is Sorted. Per source there is one piece per family with a visible
// edge, Out families before In ones under Both, and the families of one
// direction in the order their first edge of any version arrived, which is
// the order the graph created them in. A piece's neighbours ascend, equal
// ones in arrival order. The batch is Sorted iff no source has two pieces.
func (m *Model) Read(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dst catalog.LabelID, ver uint64) ([]Piece, bool) {
	type family struct {
		near, far catalog.LabelID
		dir       catalog.Direction
	}
	dirs := []catalog.Direction{dir}
	if dir == catalog.Both {
		dirs = []catalog.Direction{catalog.Out, catalog.In}
	}
	born := map[family]int{}
	for i, e := range m.Edges {
		for _, d := range dirs {
			o := oriented(e, d)
			if f := (family{o.SrcLabel, o.DstLabel, d}); e.Et == et && born[f] == 0 {
				born[f] = i + 1
			}
		}
	}
	var out []Piece
	sorted := true
	for row, src := range srcs {
		start := len(out)
		for _, d := range dirs {
			runs := map[family][]Edge{}
			for _, e := range m.Edges {
				if o := oriented(e, d); e.Et == et && o.Src == src && e.Ver <= ver && (dst == AnyLabel || o.DstLabel == dst) {
					f := family{o.SrcLabel, o.DstLabel, d}
					runs[f] = append(runs[f], o)
				}
			}
			fams := make([]family, 0, len(runs))
			for f := range runs {
				fams = append(fams, f)
			}
			slices.SortFunc(fams, func(a, b family) int { return born[a] - born[b] })
			for _, f := range fams {
				run := runs[f]
				slices.SortStableFunc(run, func(a, b Edge) int { return int(a.Dst) - int(b.Dst) })
				out = append(out, Piece{Row: row, Dir: d, Label: f.far, Edges: run})
			}
		}
		sorted = sorted && len(out)-start <= 1
	}
	return out, sorted
}

// Lines renders pieces one line per piece, as a batch is rendered for
// comparison: the request row, the destination label, the neighbours and,
// when kinds (the edge type's schema) is not nil, each property's values.
func Lines(pieces []Piece, kinds []vector.Kind) []string {
	var out []string
	for _, p := range pieces {
		vids := make([]vector.VID, len(p.Edges))
		for k, e := range p.Edges {
			vids[k] = e.Dst
		}
		line := fmt.Sprintf("row %d label %d %v", p.Row, p.Label, vids)
		for q, kind := range kinds {
			vals := make([]any, len(p.Edges))
			for k, e := range p.Edges {
				var v vector.Value
				if q < len(e.Props) {
					v = e.Props[q]
				}
				switch kind {
				case vector.KindFloat64:
					vals[k] = v.F
				case vector.KindString:
					vals[k] = v.S
				default:
					vals[k] = v.I
				}
			}
			if kind == vector.KindString {
				line += fmt.Sprintf(" %q", vals)
			} else {
				line += fmt.Sprint(" ", vals)
			}
		}
		out = append(out, line)
	}
	return out
}
