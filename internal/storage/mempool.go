package storage

import (
	"sync"
	"sync/atomic"

	"ges/internal/core"
	"ges/internal/vector"
)

// Pool is the size-classed memory pool of §5. Originally it recycled only
// the copy-on-write transaction path's neighbor buffers; it now serves as
// the process-wide arena parent for every executor scratch shape — VID
// buffers, int32 scratch, index vectors, f-Block columns, selection bitsets,
// f-Trees and adjacency batches — with per-class get/put/hit counters
// feeding the /stats memory section.
//
// All methods are safe for concurrent use; per-query ownership bracketing
// lives in Arena (arena.go).
type Pool struct {
	vids   slicePool[vector.VID]
	ints   slicePool[int32]
	ranges slicePool[core.Range]

	cols    objPool[vector.Column]
	bits    objPool[vector.Bitset]
	trees   objPool[core.FTree]
	batches objPool[Batch]
	blocks  objPool[core.FBlock]
	arenas  objPool[Arena]

	// live is the slice-buffer bytes (capacity × element size) drawn by
	// arenas that have not been released yet; the /stats memory section
	// reports it as live arena bytes. Only Arena moves it: each arena adds
	// what it draws and Release subtracts that same sum, so the gauge is
	// exactly zero whenever no query is running, whatever became of the
	// individual buffers (grown by append, demoted, dropped, oversize).
	live atomic.Int64

	// cleared counts the bytes get and put zeroed to hand memory over clean
	// — see PoolStats.ClearedBytes.
	cleared atomic.Int64
}

const numClasses = 16 // class i holds buffers of capacity 8<<i, up to 256Ki

// Element sizes for byte accounting (struct layouts on 64-bit targets).
const (
	vidSize   = 4
	int32Size = 4
	rangeSize = 8
)

// Poison sentinels for the -tags gesassert release discipline. The values
// are deliberately improbable so a legitimately all-sentinel buffer is
// effectively impossible.
var (
	poisonVID   = vector.VID(0xDEADBEEF)
	poisonInt32 = int32(-0x21524111)
	poisonRange = core.Range{Start: -0x21524111, End: -0x21524111}
)

// NewPool returns a ready memory pool.
func NewPool() *Pool {
	p := &Pool{}
	p.vids.poison, p.vids.elemSize = poisonVID, vidSize
	p.ints.poison, p.ints.elemSize = poisonInt32, int32Size
	p.ranges.poison, p.ranges.elemSize = poisonRange, rangeSize
	p.vids.cleared, p.ints.cleared, p.ranges.cleared = &p.cleared, &p.cleared, &p.cleared
	return p
}

// classFor returns the smallest size class whose capacity fits n, or -1 when
// n exceeds the largest class (callers then allocate directly).
func classFor(n int) int {
	c, capa := 0, 8
	for capa < n {
		capa <<= 1
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// slicePool recycles buffers of one element type across the size classes.
type slicePool[T comparable] struct {
	classes [numClasses]sync.Pool
	boxes   sync.Pool // emptied sliceBoxes, so puts don't allocate a box each
	gets    [numClasses]atomic.Int64
	hits    [numClasses]atomic.Int64
	puts    [numClasses]atomic.Int64
	big     atomic.Int64 // oversize requests served by make, never pooled

	poison   T
	elemSize int
	cleared  *atomic.Int64
}

// sliceBox boxes a slice so sync.Pool stores a pointer-shaped value.
type sliceBox[T any] struct{ s []T }

// get returns a zero-length buffer with capacity at least n whose first n
// slots are zero, so a caller that reslices to the length it asked for never
// observes a previous owner's contents (the GetVIDs stale-VID fix). The
// capacity past n is not touched: a recycled buffer may be a demoted one of
// up to twice the class, and zeroing what nobody asked for would make a get
// cost what an earlier query grew, not what this one needs. In assert builds
// that tail still carries the release sentinel.
func (p *slicePool[T]) get(n int) []T {
	c := classFor(n)
	if c < 0 {
		p.big.Add(1)
		return make([]T, 0, n)
	}
	p.gets[c].Add(1)
	// At least one slot, so an unused buffer does not go back still wearing
	// the whole release stamp (put would take it for a double release).
	k := max(n, 1)
	p.cleared.Add(int64(k * p.elemSize))
	if v := p.classes[c].Get(); v != nil {
		p.hits[c].Add(1)
		box := v.(*sliceBox[T])
		s := box.s[:cap(box.s)]
		box.s = nil
		p.boxes.Put(box)
		checkPoison(s, p.poison)
		clear(s[:k])
		return s[:0]
	}
	return make([]T, 0, 8<<uint(c))
}

// put returns a buffer obtained from get to the pool. Append growth may
// leave the capacity between classes; the buffer is demoted to the class it
// fully satisfies.
func (p *slicePool[T]) put(buf []T) {
	c := classFor(cap(buf))
	if c < 0 {
		return
	}
	if cap(buf) < 8<<uint(c) {
		c--
		if c < 0 {
			return
		}
	}
	p.puts[c].Add(1)
	s := buf[:cap(buf)]
	applyPoison(s, p.poison)
	box, _ := p.boxes.Get().(*sliceBox[T])
	if box == nil {
		box = new(sliceBox[T])
	}
	box.s = s[:0]
	p.classes[c].Put(box)
}

// applyPoison stamps a released buffer with the sentinel in assert builds
// (-tags gesassert). A second Put of the same buffer finds the stamp intact
// and panics — the poison-on-release discipline check. Release builds
// compile both helpers away (AssertEnabled is a false constant).
func applyPoison[T comparable](s []T, poison T) {
	if !core.AssertEnabled || len(s) == 0 {
		return
	}
	if s[0] == poison {
		all := true
		for _, v := range s[1:] {
			if v != poison {
				all = false
				break
			}
		}
		if all {
			panic("storage: pool double release: buffer already carries the release sentinel")
		}
	}
	for i := range s {
		s[i] = poison
	}
}

// checkPoison verifies a recycled buffer still carries the release sentinel
// in assert builds: a caller that kept writing through a buffer after Put
// breaks the stamp and is caught the next time the buffer is handed out.
func checkPoison[T comparable](s []T, poison T) {
	if !core.AssertEnabled {
		return
	}
	for _, v := range s {
		if v != poison {
			panic("storage: pool use after release: recycled buffer was written through after Put")
		}
	}
}

// objPool recycles pointer-shaped executor objects (columns, bitsets,
// f-Trees, batches) with get/hit/put counters.
type objPool[T any] struct {
	p    sync.Pool
	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
}

func (p *objPool[T]) get() *T {
	p.gets.Add(1)
	if v := p.p.Get(); v != nil {
		p.hits.Add(1)
		return v.(*T)
	}
	return new(T)
}

func (p *objPool[T]) put(v *T) {
	p.puts.Add(1)
	p.p.Put(v)
}

func (p *objPool[T]) stats() ObjStat {
	return ObjStat{Gets: p.gets.Load(), Hits: p.hits.Load(), Puts: p.puts.Load()}
}

// GetVIDs returns a zero-length VID buffer with capacity at least n, its
// first n slots zeroed.
func (p *Pool) GetVIDs(n int) []vector.VID { return p.vids.get(n) }

// PutVIDs returns a buffer obtained from GetVIDs to the pool.
func (p *Pool) PutVIDs(buf []vector.VID) { p.vids.put(buf) }

// GetInt32s returns a zero-length int32 buffer with capacity at least n, its
// first n slots zeroed.
func (p *Pool) GetInt32s(n int) []int32 { return p.ints.get(n) }

// PutInt32s returns a buffer obtained from GetInt32s to the pool.
func (p *Pool) PutInt32s(buf []int32) { p.ints.put(buf) }

// GetRanges returns a zero-length index-vector buffer with capacity at
// least n, its first n slots zeroed.
func (p *Pool) GetRanges(n int) []core.Range { return p.ranges.get(n) }

// PutRanges returns a buffer obtained from GetRanges to the pool.
func (p *Pool) PutRanges(buf []core.Range) { p.ranges.put(buf) }

// GetColumn returns an empty column of the given identity, recycling a
// previously released column's backing capacity when one is available.
func (p *Pool) GetColumn(name string, kind vector.Kind) *vector.Column {
	c := p.cols.get()
	c.Reinit(name, kind)
	return c
}

// GetDictColumn is GetColumn for a dictionary-encoded string column over d.
func (p *Pool) GetDictColumn(name string, d *vector.Dict) *vector.Column {
	c := p.cols.get()
	c.ReinitDict(name, d)
	return c
}

// PutColumn returns a column to the pool. The caller must not retain any
// reference to it or to its backing slices. This is where a column's
// strings are dropped — once, over the rows it held; the
// Reinit of the next GetColumn finds it empty (see Column.Reinit).
func (p *Pool) PutColumn(c *vector.Column) {
	if c == nil {
		return
	}
	p.cleared.Add(int64(c.Reinit("", vector.KindInvalid)))
	p.cols.put(c)
}

// GetBitset returns an n-bit selection vector, every bit set (valid=true) or
// clear, recycling word storage when available.
func (p *Pool) GetBitset(n int, valid bool) *vector.Bitset {
	b := p.bits.get()
	b.Reinit(n, valid)
	return b
}

// PutBitset returns a bitset to the pool.
func (p *Pool) PutBitset(b *vector.Bitset) {
	if b == nil {
		return
	}
	p.bits.put(b)
}

// GetFTree returns a root-only f-Tree over rootBlock with all rows valid —
// NewFTree semantics. A recycled tree arrives with its retired node registry
// intact, so regrowing it reuses the previous query's Node structs and
// selection-vector storage (§5, pre-allocated reusable f-Trees).
func (p *Pool) GetFTree(rootBlock *core.FBlock) *core.FTree {
	t := p.trees.get()
	if t.Root == nil {
		// Fresh allocation from new(FTree): give it a root the Reset
		// contract requires.
		*t = *core.NewFTree(rootBlock)
		return t
	}
	t.Reset(rootBlock)
	return t
}

// PutFTree returns a tree to the pool. Its block and index references are
// dropped at the next GetFTree's Reset; until then the inert pooled tree may
// briefly pin them, which is bounded by pool size.
func (p *Pool) PutFTree(t *core.FTree) {
	if t == nil {
		return
	}
	p.trees.put(t)
}

// GetFBlock returns an empty f-Block, recycling a retired block's
// column-pointer slice when one is pooled; the caller attaches columns via
// AddColumn. Taking no column slice keeps call-site variadic arguments
// non-escaping (they would otherwise heap-allocate per call).
func (p *Pool) GetFBlock() *core.FBlock {
	return p.blocks.get()
}

// PutFBlock drops a block's column references and returns it to the pool.
func (p *Pool) PutFBlock(b *core.FBlock) {
	if b == nil {
		return
	}
	b.Drop()
	p.blocks.put(b)
}

// GetArena returns a query arena over this pool, recycling a released
// arena's ownership-tracking slices when one is pooled — so steady-state
// query execution allocates neither the arena struct nor its bookkeeping.
// A nil pool yields a fresh non-recycling arena (NewArena semantics).
func (p *Pool) GetArena() *Arena {
	if p == nil {
		return NewArena(nil)
	}
	a := p.arenas.get()
	a.pool = p
	return a
}

// PutArena releases every structure the arena still owns and returns the
// arena itself — tracking-slice capacity intact — to the pool. Safe on nil
// and on arenas created by NewArena over this pool.
func (p *Pool) PutArena(a *Arena) {
	if a == nil {
		return
	}
	a.Release()
	if p == nil || a.pool != p {
		return
	}
	p.arenas.put(a)
}

// GetBatch returns an empty adjacency batch whose internal slices retain
// capacity from previous use; NeighborsBatch overwrites them in place.
func (p *Pool) GetBatch() *Batch { return p.batches.get() }

// PutBatch returns a batch to the pool, keeping the capacity of its runs,
// pieces and backing table. The pieces are cleared with the backings they
// index, and merged rows are replaced, never reused, by the next fill
// (Batch.reset), so both go — a pooled batch pins neither a sealed image nor
// a query's strings.
func (p *Pool) PutBatch(b *Batch) {
	if b == nil {
		return
	}
	b.reset(0)
	p.batches.put(b)
}

// ClassStat is one size class's cumulative slice-pool counters, aggregated
// across the element types.
type ClassStat struct {
	Cap  int   `json:"cap"`
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`
}

// ObjStat is the counter triple of one object pool.
type ObjStat struct {
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`
}

// PoolStats is the full counter snapshot the /stats memory section and the
// mem experiment report.
type PoolStats struct {
	Gets      int64 `json:"gets"`
	Hits      int64 `json:"hits"`
	Puts      int64 `json:"puts"`
	LiveBytes int64 `json:"liveBytes"`
	// ClearedBytes is the cumulative bytes get and put zeroed: the slots a
	// slice get was asked for and the rows a column held on put. It is
	// counted per call, not per sync.Pool hit, so it repeats exactly for a
	// request sequence, and it follows the sizes the requests use — never
	// the capacity recycled objects retain.
	ClearedBytes int64       `json:"clearedBytes"`
	Classes      []ClassStat `json:"classes,omitempty"`
	Columns      ObjStat     `json:"columns"`
	Bitsets      ObjStat     `json:"bitsets"`
	Trees        ObjStat     `json:"ftrees"`
	Batches      ObjStat     `json:"batches"`
	Blocks       ObjStat     `json:"fblocks"`
	Arenas       ObjStat     `json:"arenas"`
}

// HitRate returns hits/gets, or 0 before any traffic.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// DetailedStats snapshots every pool counter: the VID, int32 and
// index-vector slice classes and the object pools. Classes lists only size
// classes that saw traffic.
func (p *Pool) DetailedStats() PoolStats {
	var s PoolStats
	for c := 0; c < numClasses; c++ {
		cs := ClassStat{Cap: 8 << uint(c)}
		for _, sp := range []*struct{ g, h, pu *atomic.Int64 }{
			{&p.vids.gets[c], &p.vids.hits[c], &p.vids.puts[c]},
			{&p.ints.gets[c], &p.ints.hits[c], &p.ints.puts[c]},
			{&p.ranges.gets[c], &p.ranges.hits[c], &p.ranges.puts[c]},
		} {
			cs.Gets += sp.g.Load()
			cs.Hits += sp.h.Load()
			cs.Puts += sp.pu.Load()
		}
		if cs.Gets > 0 || cs.Puts > 0 {
			s.Classes = append(s.Classes, cs)
		}
		s.Gets += cs.Gets
		s.Hits += cs.Hits
		s.Puts += cs.Puts
	}
	s.Gets += p.vids.big.Load() + p.ints.big.Load() + p.ranges.big.Load()
	s.Columns = p.cols.stats()
	s.Bitsets = p.bits.stats()
	s.Trees = p.trees.stats()
	s.Batches = p.batches.stats()
	s.Blocks = p.blocks.stats()
	s.Arenas = p.arenas.stats()
	for _, o := range []ObjStat{s.Columns, s.Bitsets, s.Trees, s.Batches, s.Blocks, s.Arenas} {
		s.Gets += o.Gets
		s.Hits += o.Hits
		s.Puts += o.Puts
	}
	s.LiveBytes = p.live.Load()
	s.ClearedBytes = p.cleared.Load()
	return s
}
