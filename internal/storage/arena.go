package storage

import (
	"ges/internal/core"
	"ges/internal/vector"
)

// Arena brackets the scratch memory of one query execution (§5, memory
// pool). The engine creates one arena per Run over the engine's shared Pool;
// operators draw every intermediate structure from it; and at query end the
// engine releases the whole arena back to the pool in one call — the
// paper's "allocate once, recycle per query" discipline. Service per-request
// engines share one server pool, so released arenas feed the next request.
//
// Two ownership scopes exist:
//
//   - Own* methods hand out query-lifetime structures (index vectors that
//     land in f-Tree nodes, f-Block columns, selection bitsets, f-Trees,
//     f-Blocks). The arena tracks them and Release returns them
//     wholesale; callers never put them back individually.
//   - Get*/Put* methods hand out transient scratch (batched source VIDs,
//     int32 tuple ids and row positions, adjacency batches — every consumer
//     copies what it keeps out of a batch before putting it back).
//     The caller must put the buffer back on every path — geslint R11
//     enforces this — and the arena passes it straight through to the
//     shared pool.
//
// A nil *Arena is valid and recycles nothing: every getter falls back to
// plain allocation and every release is a no-op, so operator code calls
// through unconditionally. An arena over a nil pool behaves the same.
//
// An arena serves one query, which runs on one goroutine, so it takes no
// lock.
type Arena struct {
	pool *Pool

	// drawn is the slice-buffer bytes this arena has added to pool.live —
	// owned and transient alike — and Release subtracts again.
	drawn int64

	ranges [][]core.Range
	cols   []*vector.Column
	bits   []*vector.Bitset
	trees  []*core.FTree
	blocks []*core.FBlock
}

// NewArena returns an arena over pool. A nil pool yields an arena that
// allocates fresh memory and recycles nothing.
func NewArena(pool *Pool) *Arena {
	return &Arena{pool: pool}
}

// recycling reports whether the arena actually pools memory.
func (a *Arena) recycling() bool { return a != nil && a.pool != nil }

// charge books a buffer drawn from the pool on the live-bytes gauge. The
// arena remembers the sum rather than the buffers: a transient buffer may
// come back grown, or not at all, so a per-buffer credit on put could never
// be made to balance — the per-arena sum does by construction.
func charge[T any](a *Arena, buf []T, elemSize int) []T {
	b := int64(cap(buf) * elemSize)
	a.drawn += b
	a.pool.live.Add(b)
	return buf
}

// OwnRanges returns a query-lifetime index vector of length n, zeroed.
func (a *Arena) OwnRanges(n int) []core.Range {
	if !a.recycling() {
		return make([]core.Range, n)
	}
	s := charge(a, a.pool.GetRanges(n), rangeSize)[:n] // the first n slots are zeroed on get
	a.ranges = append(a.ranges, s)
	return s
}

// OwnColumn returns a query-lifetime column (f-Block scratch).
func (a *Arena) OwnColumn(name string, kind vector.Kind) *vector.Column {
	if !a.recycling() {
		return vector.NewColumn(name, kind)
	}
	c := a.pool.GetColumn(name, kind)
	a.cols = append(a.cols, c)
	return c
}

// OwnDictColumn returns a query-lifetime dictionary-encoded string column.
func (a *Arena) OwnDictColumn(name string, d *vector.Dict) *vector.Column {
	if !a.recycling() {
		return vector.NewDictColumn(name, d)
	}
	c := a.pool.GetDictColumn(name, d)
	a.cols = append(a.cols, c)
	return c
}

// OwnBitset returns a query-lifetime n-bit selection vector.
func (a *Arena) OwnBitset(n int, valid bool) *vector.Bitset {
	if !a.recycling() {
		if valid {
			return vector.NewBitset(n)
		}
		return vector.NewBitsetEmpty(n)
	}
	b := a.pool.GetBitset(n, valid)
	a.bits = append(a.bits, b)
	return b
}

// OwnFTree returns a query-lifetime root-only f-Tree over rootBlock,
// recycling a prior query's tree (node registry, selection-vector words)
// when one is pooled.
func (a *Arena) OwnFTree(rootBlock *core.FBlock) *core.FTree {
	if !a.recycling() {
		return core.NewFTree(rootBlock)
	}
	t := a.pool.GetFTree(rootBlock)
	a.trees = append(a.trees, t)
	return t
}

// OwnFBlock returns an empty query-lifetime f-Block, recycling a retired
// block's column-pointer slice when one is pooled; the caller attaches
// columns via AddColumn (see Ctx.NewFBlock).
func (a *Arena) OwnFBlock() *core.FBlock {
	if !a.recycling() {
		return core.NewFBlock()
	}
	b := a.pool.GetFBlock()
	a.blocks = append(a.blocks, b)
	return b
}

// GetVIDs returns transient VID scratch; the caller must PutVIDs it on
// every path (geslint R11).
func (a *Arena) GetVIDs(n int) []vector.VID {
	if !a.recycling() {
		return make([]vector.VID, 0, n)
	}
	return charge(a, a.pool.GetVIDs(n), vidSize)
}

// PutVIDs releases transient VID scratch.
func (a *Arena) PutVIDs(buf []vector.VID) {
	if a.recycling() {
		a.pool.PutVIDs(buf)
	}
}

// GetInt32s returns transient int32 scratch (tuple ids, row positions); the
// caller must PutInt32s it on every path (geslint R11).
func (a *Arena) GetInt32s(n int) []int32 {
	if !a.recycling() {
		return make([]int32, 0, n)
	}
	return charge(a, a.pool.GetInt32s(n), int32Size)
}

// PutInt32s releases transient int32 scratch.
func (a *Arena) PutInt32s(buf []int32) {
	if a.recycling() {
		a.pool.PutInt32s(buf)
	}
}

// GetBatch returns a transient adjacency batch (every value is copied out
// of the batch before the operator returns); the caller must PutBatch it on
// every path (geslint R11).
func (a *Arena) GetBatch() *Batch {
	if !a.recycling() {
		return new(Batch)
	}
	return a.pool.GetBatch()
}

// PutBatch releases a transient adjacency batch.
func (a *Arena) PutBatch(b *Batch) {
	if a.recycling() {
		a.pool.PutBatch(b)
	}
}

// Release returns every Own*-scoped structure to the parent pool in one
// sweep — the query-end wholesale release. The engine calls it after the
// final result has been flattened into row values; nothing the caller
// receives aliases arena memory. Release is idempotent: a second call finds
// the ownership lists empty.
func (a *Arena) Release() {
	if !a.recycling() {
		return
	}
	a.pool.live.Add(-a.drawn)
	a.drawn = 0
	for _, s := range a.ranges {
		a.pool.PutRanges(s)
	}
	clear(a.ranges)
	a.ranges = a.ranges[:0]
	for _, c := range a.cols {
		a.pool.PutColumn(c)
	}
	clear(a.cols)
	a.cols = a.cols[:0]
	for _, b := range a.bits {
		a.pool.PutBitset(b)
	}
	clear(a.bits)
	a.bits = a.bits[:0]
	for _, t := range a.trees {
		a.pool.PutFTree(t)
	}
	clear(a.trees)
	a.trees = a.trees[:0]
	for _, b := range a.blocks {
		a.pool.PutFBlock(b)
	}
	clear(a.blocks)
	a.blocks = a.blocks[:0]
}
