// Package plan is the fixture consumer for R3's statistics row: it may read
// statistics snapshots but never write through them.
package plan

import "ges/internal/stats"

// Card only reads the snapshot (negative case).
func Card(s *stats.Snapshot, l uint16) int {
	return s.Labels[l] + s.Vertices + len(s.Families[l].Hist.Buckets)
}

// Mutate exercises every store shape R3 polices on statistics values.
func Mutate(s *stats.Snapshot, l uint16) {
	s.Vertices = 9            // want R3
	s.Labels[l] = 3           // want R3
	f := s.Families[l]        // a copy — but its Histogram shares bucket storage
	f.Hist.Buckets[0].Count++ // want R3
	m := s.Labels
	m[l] = 4 // want R3
}
