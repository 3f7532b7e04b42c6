package storage

import (
	"testing"

	"ges/internal/core"
	"ges/internal/vector"
)

// TestZeroOnGetRegression pins the stale-VID fix in its length-proportional
// form: the slots a get was asked for are zero whatever the previous owner
// left in the buffer, for every pooled element type. (The capacity past the
// request is deliberately not swept — see TestClearedBytesFollowUse.)
func TestZeroOnGetRegression(t *testing.T) {
	p := NewPool()
	buf := p.GetVIDs(64)
	for i := 0; i < 64; i++ {
		buf = append(buf, vector.VID(i+1))
	}
	p.PutVIDs(buf)
	got := p.GetVIDs(40) // same class as 64
	for i, v := range got[:40] {
		if v != 0 {
			t.Fatalf("stale VID %d at index %d after recycle (the requested slots must be zeroed on get)", v, i)
		}
	}
	rg := p.GetRanges(16)
	for i := 0; i < 16; i++ {
		rg = append(rg, core.Range{Start: 1, End: 2})
	}
	p.PutRanges(rg)
	rg = p.GetRanges(12)
	for i, r := range rg[:12] {
		if r != (core.Range{}) {
			t.Fatalf("stale Range %+v at index %d after recycle", r, i)
		}
	}
	ints := p.GetInt32s(32)
	for i := 0; i < 32; i++ {
		ints = append(ints, int32(i+1))
	}
	p.PutInt32s(ints)
	ints = p.GetInt32s(20)
	for i, v := range ints[:20] {
		if v != 0 {
			t.Fatalf("stale int32 %d at index %d after recycle", v, i)
		}
	}
}

// TestLiveBytesExact pins the live-bytes gauge: positive while an arena holds
// buffers, and exactly zero after Release whatever became of them — grown by
// append into another class, oversize, or never put back.
func TestLiveBytesExact(t *testing.T) {
	p := NewPool()
	a := p.GetArena()
	a.OwnRanges(100)
	a.GetInt32s(3) // dropped: never put back
	grown := a.GetVIDs(8)
	for i := 0; i < 5000; i++ { // leaves its class: put credits a different capacity than get drew
		grown = append(grown, vector.VID(i))
	}
	a.PutVIDs(grown)
	a.PutVIDs(a.GetVIDs(1 << 20)) // oversize: served by make, never pooled
	a.GetVIDs(64)                 // dropped: never put back
	if live := p.DetailedStats().LiveBytes; live <= 0 {
		t.Fatalf("LiveBytes = %d with an arena holding buffers", live)
	}
	p.PutArena(a)
	if live := p.DetailedStats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d after the only arena was released, want 0", live)
	}
}

// smallQuery draws what a point lookup draws and reports the bytes the pool
// zeroed for it.
func smallQuery(p *Pool) int64 {
	before := p.DetailedStats().ClearedBytes
	a := p.GetArena()
	a.OwnRanges(8)
	c := a.OwnColumn("name", vector.KindString)
	c.AppendString("a")
	c.AppendString("b")
	vc := a.OwnColumn("n", vector.KindVID)
	vc.AppendVIDs([]vector.VID{1})
	a.PutVIDs(append(a.GetVIDs(1), 7))
	p.PutArena(a)
	return p.DetailedStats().ClearedBytes - before
}

// TestClearedBytesFollowUse is the deterministic form of "a short query in
// the mix costs what it costs alone": after a query that grew every recycled
// shape to 10^4–10^5 slots, the pool zeroes exactly as many bytes for a small
// query as it does on a pool that has seen nothing else.
func TestClearedBytesFollowUse(t *testing.T) {
	fresh := NewPool()
	smallQuery(fresh)
	alone := smallQuery(fresh)

	p := NewPool()
	smallQuery(p)
	a := p.GetArena()
	a.OwnRanges(100_000)
	str := a.OwnColumn("s", vector.KindString)
	vc := a.OwnColumn("v", vector.KindVID)
	seg := []vector.VID{1, 2, 3}
	for i := 0; i < 50_000; i++ {
		str.AppendString("s")
		vc.AppendVIDs(seg)
	}
	big := a.GetVIDs(8)
	for i := 0; i < 100_000; i++ {
		big = append(big, vector.VID(i))
	}
	a.PutVIDs(big)
	p.PutArena(a)
	if after := smallQuery(p); after != alone || alone <= 0 {
		t.Fatalf("small query cleared %d bytes after a large one, %d alone", after, alone)
	}
}

// TestArenaReleaseIdempotent checks the wholesale-release contract: every
// Own*-scoped structure returns to the pool exactly once, and a second
// Release finds nothing to do.
func TestArenaReleaseIdempotent(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	a.OwnRanges(32)
	a.OwnColumn("c", vector.KindInt64)
	a.OwnDictColumn("d", vector.NewDict())
	a.OwnBitset(100, true)
	a.OwnFTree(core.NewFBlock())
	b := a.OwnFBlock()
	b.AddColumn(vector.NewColumn("x", vector.KindVID))

	putsBefore := p.DetailedStats().Puts
	a.Release()
	puts := p.DetailedStats().Puts
	if n := puts - putsBefore; n != 6 {
		t.Fatalf("Release returned %d structures, want 6", n)
	}
	a.Release() // idempotent: nothing left to return
	if again := p.DetailedStats().Puts; again != puts {
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
	for try := 0; b != a && try < 32; try++ { // sync.Pool drops some puts under -race
		a = b
		p.PutArena(a)
		b = p.GetArena()
	}
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

// TestFBlockPooling checks the block recycling added for the per-query
// steady state: a block drops its column references on Put so a pooled
// block never pins a column alive.
func TestFBlockPooling(t *testing.T) {
	p := NewPool()
	col := vector.NewColumn("v", vector.KindVID)
	b := p.GetFBlock()
	b.AddColumn(col)
	p.PutFBlock(b)
	b2 := p.GetFBlock()
	if b2.NumCols() != 0 {
		t.Fatalf("pooled f-Block arrived with %d columns", b2.NumCols())
	}
}
