package storage

import (
	"unsafe"

	"ges/internal/vector"
)

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

// ViewsImage reports whether vids (non-empty) lies inside the neighbor array
// of one of g's published images — pointer identity, found without the
// batch's own bookkeeping — rather than in memory a read owns.
func ViewsImage(g *Graph, vids []vector.VID) bool {
	at := uintptr(unsafe.Pointer(&vids[0]))
	for _, l := range g.fams.Load().adj {
		if img := l.snap.Load().neighbors; len(img) > 0 {
			lo := uintptr(unsafe.Pointer(&img[0]))
			if at >= lo && at < lo+uintptr(len(img))*unsafe.Sizeof(img[0]) {
				return true
			}
		}
	}
	return false
}
