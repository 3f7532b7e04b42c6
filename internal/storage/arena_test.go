package storage

import (
	"testing"

	"ges/internal/core"
	"ges/internal/vector"
)

// TestZeroOnGetRegression pins the stale-VID fix: a recycled buffer must be
// zeroed across its FULL capacity, so even a caller that (incorrectly)
// reslices past len can never observe a previous owner's contents.
func TestZeroOnGetRegression(t *testing.T) {
	p := NewPool()
	buf := p.GetVIDs(64)
	for i := 0; i < 64; i++ {
		buf = append(buf, vector.VID(i+1))
	}
	p.PutVIDs(buf)
	got := p.GetVIDs(64)
	full := got[:cap(got)]
	for i, v := range full {
		if v != 0 {
			t.Fatalf("stale VID %d at index %d after recycle (capacity must be zeroed on get)", v, i)
		}
	}
	// Same contract for the other pooled element types.
	rg := p.GetRanges(16)
	rg = append(rg, core.Range{Start: 1, End: 2})
	p.PutRanges(rg)
	rg = p.GetRanges(16)
	for i, r := range rg[:cap(rg)] {
		if r != (core.Range{}) {
			t.Fatalf("stale Range %+v at index %d after recycle", r, i)
		}
	}
	vals := p.GetVals(8)
	vals = append(vals[:0], vector.Int64(9))
	p.PutVals(vals)
	vals = p.GetVals(8)
	for i, v := range vals[:cap(vals)] {
		if v != (vector.Value{}) {
			t.Fatalf("stale Value %+v at index %d after recycle", v, i)
		}
	}
}

// TestArenaReleaseIdempotent checks the wholesale-release contract: every
// Own*-scoped structure returns to the pool exactly once, and a second
// Release finds nothing to do.
func TestArenaReleaseIdempotent(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	a.OwnRanges(32)
	a.OwnVals(8)
	a.OwnColumn("c", vector.KindInt64)
	a.OwnLazyVIDColumn("l")
	a.OwnBitset(100, true)
	a.OwnFTree(core.NewFBlock())
	a.OwnBatch()
	b := a.OwnFBlock()
	b.AddColumn(vector.NewColumn("x", vector.KindVID))
	a.OwnChunk(nil, nil)

	_, putsBefore := p.Stats()
	a.Release()
	_, puts := p.Stats()
	if n := puts - putsBefore; n != 9 {
		t.Fatalf("Release returned %d structures, want 9", n)
	}
	a.Release() // idempotent: nothing left to return
	if _, again := p.Stats(); again != puts {
		t.Fatalf("second Release returned structures: puts %d -> %d", puts, again)
	}
}

// TestNilArenaAllocates checks the nil-arena and nil-pool fallbacks: every
// getter must still hand out working memory, every put must be a no-op, and
// nothing may touch a pool.
func TestNilArenaAllocates(t *testing.T) {
	var a *Arena
	if s := a.OwnRanges(4); len(s) != 4 {
		t.Fatalf("nil arena OwnRanges len %d", len(s))
	}
	if c := a.OwnColumn("c", vector.KindInt64); c == nil {
		t.Fatal("nil arena OwnColumn returned nil")
	}
	if b := a.GetVIDs(8); cap(b) < 8 {
		t.Fatalf("nil arena GetVIDs cap %d", cap(b))
	}
	a.PutVIDs(nil)
	a.Release()
	ch := a.OwnChunk(nil, nil)
	if ch == nil {
		t.Fatal("nil arena OwnChunk returned nil")
	}
	blk := a.OwnFBlock()
	if blk == nil {
		t.Fatal("nil arena OwnFBlock returned nil")
	}

	// An arena over a nil pool (what a nil *Pool's GetArena hands out)
	// behaves the same with the arena present.
	var np *Pool
	nr := np.GetArena()
	if s := nr.OwnRanges(4); len(s) != 4 {
		t.Fatalf("pool-less arena OwnRanges len %d", len(s))
	}
	nr.Release()
	np.PutArena(nr)
}

// TestPoolArenaRecycling checks that released arenas themselves recycle:
// the second GetArena must reuse the first arena's struct and tracking
// slices rather than allocating fresh ones.
func TestPoolArenaRecycling(t *testing.T) {
	p := NewPool()
	a := p.GetArena()
	a.OwnRanges(8)
	p.PutArena(a)
	b := p.GetArena()
	if b != a {
		t.Fatal("GetArena did not reuse the released arena")
	}
	if len(b.ranges) != 0 {
		t.Fatalf("recycled arena arrived with %d tracked ranges", len(b.ranges))
	}
	b.OwnRanges(8)
	p.PutArena(b)

	// A foreign arena (different pool) must not be adopted.
	other := NewArena(NewPool())
	other.OwnRanges(8)
	p.PutArena(other) // must release other's memory but not pool the arena
	if c := p.GetArena(); c == other {
		t.Fatal("PutArena adopted an arena owned by another pool")
	}
}

// TestChunkAndFBlockPooling checks the operator-wrapper recycling added for
// the per-query steady state: chunks and blocks drop their references on Put
// so a pooled wrapper never pins a tree, block, or column alive.
func TestChunkAndFBlockPooling(t *testing.T) {
	p := NewPool()
	ft := core.NewFTree(core.NewFBlock())
	c := p.GetChunk()
	c.FT = ft
	p.PutChunk(c)
	c2 := p.GetChunk()
	if c2.FT != nil || c2.Flat != nil {
		t.Fatal("pooled chunk retained representation references")
	}

	col := vector.NewColumn("v", vector.KindVID)
	b := p.GetFBlock()
	b.AddColumn(col)
	p.PutFBlock(b)
	b2 := p.GetFBlock()
	if b2.NumCols() != 0 {
		t.Fatalf("pooled f-Block arrived with %d columns", b2.NumCols())
	}
}
