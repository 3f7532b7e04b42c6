// Pool-discipline fixtures (R11): transient Arena/Pool Get* acquires must
// be discharged — a matching Put*, an ownership hand-off, or a justified
// //geslint:leak-ok waiver. Positive cases drop a buffer on the floor, leak
// on one function while pairing on another, and carry a bare (unjustified)
// waiver; negative cases cover the deferred pair, alias shuffles, returns,
// container stores, hand-offs through a releasing helper, and the justified
// waiver.
package op

import (
	"ges/internal/storage"
	"ges/internal/vector"
)

// LeakDropped acquires a buffer no path releases or hands off.
func LeakDropped(a *storage.Arena) int {
	buf := a.GetVIDs(8) // want R11
	return len(buf)
}

// LeakArena checks the pool-level pairing: an arena checked out of the
// shared pool must go back (the engine's per-query bracket).
func LeakArena(p *storage.Pool) {
	ar := p.GetArena() // want R11
	ar.GetInt32s(0)    // want R11
}

// LeakBareWaiver carries a waiver with no justification: the directive is
// itself a finding and the acquire stays flagged.
func LeakBareWaiver(a *storage.Arena) {
	// want-below R11
	//geslint:leak-ok
	buf := a.GetVIDs(4) // want R11
	_ = buf
}

// OKDeferredPair releases through the canonical defer, after the alias has
// been resliced and appended through (the taint must follow it).
func OKDeferredPair(a *storage.Arena) int {
	buf := a.GetVIDs(8)
	defer a.PutVIDs(buf)
	buf = append(buf, 1, 2, 3)
	buf = buf[1:]
	return len(buf)
}

// OKClosurePair releases inside a deferred closure.
func OKClosurePair(a *storage.Arena) {
	ints := a.GetInt32s(4)
	defer func() { a.PutInt32s(ints) }()
	ints = append(ints, 1)
}

// OKReturned transfers ownership to the caller.
func OKReturned(a *storage.Arena) []vector.VID {
	return a.GetVIDs(16)
}

// scratch is a container whose lifecycle owns its buffers (released when
// its owner is done with them, as VarLengthExpand's bfs state is in the
// real module).
type scratch struct {
	vids []vector.VID
}

// OKContainerStore hands the buffer to a container's lifecycle.
func OKContainerStore(a *storage.Arena, sc *scratch) {
	sc.vids = a.GetVIDs(32)
}

// releaseVIDs is the helper OKViaHelper discharges through.
func releaseVIDs(a *storage.Arena, buf []vector.VID) {
	a.PutVIDs(buf)
}

// OKViaHelper discharges interprocedurally: the buffer flows into a callee
// that releases it.
func OKViaHelper(a *storage.Arena) {
	buf := a.GetVIDs(8)
	releaseVIDs(a, buf)
}

// fill is a pass-through helper: it returns its buffer argument's backing
// array, so the acquire obligation rides along on the result.
func fill(buf []vector.VID) []vector.VID {
	return append(buf[:0], 7)
}

// OKPassThrough pairs through a fill-style helper — the expand operators'
// expandSrcs shape.
func OKPassThrough(a *storage.Arena) {
	srcs := fill(a.GetVIDs(4))
	a.PutVIDs(srcs)
}

// OKWaivedLeak drops a buffer deliberately, under a justified waiver.
func OKWaivedLeak(a *storage.Arena) {
	//geslint:leak-ok fixture: deliberate one-shot acquire, justified
	buf := a.GetVIDs(4)
	_ = buf
}
