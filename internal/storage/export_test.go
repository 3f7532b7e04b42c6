package storage

// FamiliesHoldingLog counts g's families that still hold a bulk-phase edge
// log, for the external tests (which may import ldbc): zero from the first
// SealCSR on.
func FamiliesHoldingLog(g *Graph) int {
	n := 0
	for _, l := range g.fams.Load().adj {
		if l.log != nil {
			n++
		}
	}
	return n
}
