// Package stats is the fixture stub for R3's statistics row: a statistics
// snapshot whose fields may only be written inside this package.
package stats

// Snapshot is an immutable-once-published statistics image.
type Snapshot struct {
	Vertices int
	Labels   map[uint16]int
	Families map[uint16]Family
}

// Family summarizes one adjacency family.
type Family struct {
	Edges int
	Hist  Histogram
}

// Histogram is an equi-depth degree summary.
type Histogram struct{ Buckets []Bucket }

// Bucket is one histogram bucket.
type Bucket struct{ Lo, Hi, Count int }

// Builder-style writes inside internal/stats are sanctioned (negative case).
func (s *Snapshot) seal(label uint16, card int) {
	s.Vertices += card
	s.Labels[label] = card
}
