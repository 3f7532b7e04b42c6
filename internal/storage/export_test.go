package storage

// FamiliesHoldingSlots counts g's families that still reference a builder
// slot array, for the external tests (which may import ldbc): zero from the
// first SealCSR on.
func FamiliesHoldingSlots(g *Graph) int {
	n := 0
	for _, l := range g.fams.Load().adj {
		if l.meta != nil || l.arr != nil || l.propI64 != nil || l.propF64 != nil || l.propStr != nil {
			n++
		}
	}
	return n
}
