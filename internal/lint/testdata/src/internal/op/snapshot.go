// Snapshot-lifetime fixtures (R8): values derived from a sealed snapshot —
// a storage.Batch run or piece, a shared scan column, the published
// *stats.Snapshot — must stay scoped to the read. Positive cases escape into a
// package-level variable, caller-owned struct fields, a channel, a
// goroutine, and (interprocedurally) a callee that retains its parameter;
// negative cases cover local alias shuffles, a sanctioned snapshot-owner
// type, and a justified retain-ok waiver.
package op

import (
	"ges/internal/stats"
	"ges/internal/storage"
	"ges/internal/vector"
)

// snapSink, statsSink, and colSink are the package-level escape targets the
// positive cases store into.
var (
	snapSink  []vector.VID
	statsSink *stats.Snapshot
	colSink   *vector.Column
)

// Holder is an ordinary long-lived struct — not a snapshot owner.
type Holder struct {
	Keep []vector.VID
}

// LeakGlobal parks a batch's image view in a package-level variable.
func LeakGlobal(b *storage.Batch) {
	snapSink = b.VIDs // want R8
}

// LeakField parks a batch run in caller-owned memory.
func LeakField(h *Holder, b *storage.Batch) {
	h.Keep = b.VIDs // want R8
}

// ExpandState carries shared scan state for exactly one expand.
//
//geslint:snapshot-owner fixture: dropped with the expand state when the operator returns
type ExpandState struct {
	View []vector.VID
}

// OKOwnerField stores into a sanctioned snapshot-owner type (R8 negative).
func OKOwnerField(m *ExpandState, b *storage.Batch) {
	m.View = b.Run(0)
}

// LeakChan sends a batch run to another goroutine's mailbox.
func LeakChan(b *storage.Batch, ch chan []vector.VID) {
	ch <- b.VIDs // want R8
}

// consume is the goroutine body for LeakGo.
func consume(run []vector.VID) {}

// LeakGo hands a batch run to a goroutine that outlives the read (the
// go-ok directive settles R5; the escape is still R8's).
func LeakGo(b *storage.Batch) {
	//geslint:go-ok
	go consume(b.VIDs) // want R8
}

// keepRun parks its run argument in the holder — it retains parameter run.
func keepRun(h *Holder, run []vector.VID) {
	h.Keep = run
}

// LeakViaCallee reaches the same escape through the retention summary:
// passing a batch run to a callee that parks it is an escape one call
// later.
func LeakViaCallee(h *Holder, b *storage.Batch) {
	keepRun(h, b.VIDs) // want R8
}

// OKLocal shuffles batch-derived aliases locally without escaping (R8
// negative: a snapshot-derived root is not an escape target).
func OKLocal(b *storage.Batch) int {
	run := b.VIDs
	run = run[1:]
	total := 0
	for _, v := range run {
		total += int(v)
	}
	return total
}

// OKWaived parks a run deliberately, under a justified waiver (R8 negative).
func OKWaived(b *storage.Batch) {
	//geslint:retain-ok fixture: deliberate retention, justified
	snapSink = b.VIDs
}

// pieceSink and colsSink are where the leaked-piece cases park a piece.
var (
	pieceSink []vector.VID
	colsSink  *storage.EdgeCols
)

// LeakPiece parks a batch piece's neighbors, which view a sealed image.
func LeakPiece(b *storage.Batch) {
	for _, p := range b.Pieces {
		pieceSink = b.PieceVIDs(p) // want R8
	}
}

// LeakPieceField parks a piece's neighbors in caller-owned memory.
func LeakPieceField(h *Holder, b *storage.Batch) {
	h.Keep = b.PieceVIDs(b.Pieces[0]) // want R8
}

// LeakPieceCols parks the property columns a piece reads.
func LeakPieceCols(b *storage.Batch) {
	cols, _ := b.PieceCols(b.Pieces[0])
	colsSink = cols // want R8
}

// OKPieceInPlace reads every piece in place within the read and keeps
// only what it copied out (R8 negative).
func OKPieceInPlace(b *storage.Batch, out []vector.VID) []vector.VID {
	for _, p := range b.Pieces {
		cols, off := b.PieceCols(p)
		for k, v := range b.PieceVIDs(p) {
			if cols.I64[0][off+k] > 0 {
				out = append(out, v)
			}
		}
	}
	return out
}

// LeakStats parks the published statistics snapshot (call-typed source).
func LeakStats() {
	statsSink = storage.Stats() // want R8
}

// LeakShared parks a zero-copy shared scan view of a column.
func LeakShared(c *vector.Column) {
	colSink = c.ShareScanColumn() // want R8
}

// BadStatsWrite mutates a published snapshot in place — R3, the write-side
// complement of R8's lifetime discipline.
func BadStatsWrite(s *stats.Snapshot) {
	s.Vertices = 0 // want R3
}
