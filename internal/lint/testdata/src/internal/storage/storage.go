// Package storage stubs the read surface operators program against.
package storage

import (
	"ges/internal/stats"
	"ges/internal/vector"
)

// NeighborRun delimits one source's pieces inside a Batch.
type NeighborRun struct {
	Start, End int32
}

// Batch is the adjacency batch stub: its pieces view sealed CSR memory, so
// values derived from its fields are R8 snapshot sources.
type Batch struct {
	VIDs   []vector.VID
	Runs   []NeighborRun
	Pieces []Piece
}

// Piece is one family run of a batch: rows [Lo,Hi) of a sealed image.
type Piece struct {
	Lo, Hi int32
}

// EdgeCols are edge-property columns aligned with a piece's neighbors.
type EdgeCols struct {
	I64 [][]int64
}

// Run returns one run of the batch, aliasing sealed memory (R8 source).
func (b *Batch) Run(i int) []vector.VID { return b.VIDs[b.Runs[i].Start:b.Runs[i].End] }

// PieceVIDs returns a piece's neighbors, aliasing sealed memory (R8 source).
func (b *Batch) PieceVIDs(p Piece) []vector.VID { return b.VIDs[p.Lo:p.Hi] }

// PieceCols returns the columns holding a piece's edge properties and its
// offset in them, aliasing sealed memory (R8 source).
func (b *Batch) PieceCols(p Piece) (*EdgeCols, int) { return &EdgeCols{}, int(p.Lo) }

// Stats returns the published statistics snapshot (R8 call-typed source).
func Stats() *stats.Snapshot { return nil }

// Pool is the size-classed buffer pool stub (R11 acquire/release surface).
type Pool struct{}

// GetVIDs acquires a transient VID buffer (R11 obligation).
func (p *Pool) GetVIDs(n int) []vector.VID { return make([]vector.VID, 0, n) }

// PutVIDs releases a transient VID buffer (R11 discharge).
func (p *Pool) PutVIDs(buf []vector.VID) {}

// GetArena acquires a query arena (R11 obligation).
func (p *Pool) GetArena() *Arena { return &Arena{} }

// PutArena releases a query arena wholesale (R11 discharge).
func (p *Pool) PutArena(a *Arena) {}

// Arena brackets one query's transient buffers over the shared pool.
type Arena struct{}

// GetVIDs acquires a transient VID buffer (R11 obligation).
func (a *Arena) GetVIDs(n int) []vector.VID { return make([]vector.VID, 0, n) }

// PutVIDs releases a transient VID buffer (R11 discharge).
func (a *Arena) PutVIDs(buf []vector.VID) {}

// GetInt32s acquires a transient int32 buffer (R11 obligation).
func (a *Arena) GetInt32s(n int) []int32 { return make([]int32, 0, n) }

// PutInt32s releases a transient int32 buffer (R11 discharge).
func (a *Arena) PutInt32s(buf []int32) {}
