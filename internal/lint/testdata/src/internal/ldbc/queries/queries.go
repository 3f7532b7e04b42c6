// Package queries holds R1's cases for the LDBC procedures: a scalar
// Neighbors call is a finding here as in internal/op, with the same
// line-scope opt-out, while Prop and ExtID are policed in internal/op alone.
package queries

import (
	"ges/internal/storage"
	"ges/internal/vector"
)

// BadProcNeighbors walks adjacency one vertex at a time.
func BadProcNeighbors(v storage.View, src vector.VID) []storage.Segment {
	return v.Neighbors(nil, src, 0, 0, 0, false) // want R1
}

// OKProcNeighbors is a deliberate scalar walk, annotated on the line above.
func OKProcNeighbors(v storage.View, src vector.VID) []storage.Segment {
	//geslint:scalar-ok
	return v.Neighbors(nil, src, 0, 0, 0, false)
}

// OKProcProp reads one property: R1's Prop half covers internal/op only.
func OKProcProp(v storage.View, id vector.VID) vector.Value {
	return v.Prop(id, 0)
}
