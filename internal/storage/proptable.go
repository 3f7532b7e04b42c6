package storage

import (
	"math"
	"sort"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// propTable is the columnar vertex property table of one label (§5): each
// row corresponds to a vertex of that label, each column to a property.
//
// Rows come in two runs. The base rows are the bulk load's: vids, cols and
// byExt, frozen once a transaction manager binds the graph. The tail rows are
// the vertices committed transactions created, appended past them in commit
// order, each stamped with its commit version, into fixed-size chunks that
// never move: a reader loads the row count, then the chunk list, and reads
// the rows below the count without a lock, while an append writes its row
// before it stores the count — so no append copies or regrows a column.
// Commit order makes the rows a read at version s sees a prefix of the tail.
type propTable struct {
	defs  []catalog.PropDef
	cols  []*vector.Column
	vids  []vector.VID // row -> global VID
	byExt map[int64]vector.VID
	key   int // the clustering key the base rows are in order of, plus one (layout.go)

	nTail  atomic.Int64
	chunks atomic.Pointer[[]*rowChunk]
	index  atomic.Pointer[extIndex] // nil until the first tail row
}

// tailShift sizes a tail chunk: 256 rows.
const (
	tailShift = 8
	tailRows  = 1 << tailShift
)

// rowChunk holds tailRows tail rows. A property value is one word: the
// integer (dates and bools included), the float's bits, or the string's code
// in the column's dictionary.
type rowChunk struct {
	vid  [tailRows]vector.VID
	ext  [tailRows]int64
	ver  [tailRows]uint64
	vals []uint64 // property p of row i at p<<tailShift | i
}

func newPropTable(defs []catalog.PropDef) *propTable {
	t := &propTable{defs: defs, byExt: make(map[int64]vector.VID)}
	for _, d := range defs {
		c := vector.NewColumn(d.Name, d.Kind)
		// Storage strings are dictionary-encoded, so a gather moves codes.
		if d.Kind == vector.KindString {
			c.EnableDict()
		}
		t.cols = append(t.cols, c)
	}
	return t
}

// addRow appends a base vertex row and returns its per-label row index.
func (t *propTable) addRow(vid vector.VID, extID int64, props []vector.Value) uint32 {
	row := uint32(len(t.vids))
	t.vids = append(t.vids, vid)
	t.byExt[extID] = vid
	for i := range t.cols {
		var v vector.Value
		if i < len(props) {
			v = props[i]
		}
		t.cols[i].Append(normalize(v, t.defs[i].Kind))
	}
	return row
}

// normalize coerces the zero Value into the column's kind so missing
// properties store as typed zeros.
func normalize(v vector.Value, k vector.Kind) vector.Value {
	if v.Kind == vector.KindInvalid {
		return vector.Value{Kind: k}
	}
	return v
}

// get returns the value of property p at base row.
func (t *propTable) get(row uint32, p catalog.PropID) vector.Value {
	return t.cols[p].Get(int(row))
}

// tailRow returns the chunk holding tail row r and r's index in it.
func (t *propTable) tailRow(r int) (*rowChunk, int) {
	return (*t.chunks.Load())[r>>tailShift], r & (tailRows - 1)
}

// tailWord returns property p of tail row r as stored.
func (t *propTable) tailWord(r int, p catalog.PropID) uint64 {
	c, i := t.tailRow(r)
	return c.vals[int(p)<<tailShift|i]
}

// tailValue returns property p of tail row r.
func (t *propTable) tailValue(r int, p catalog.PropID) vector.Value {
	w := t.tailWord(r, p)
	switch k := t.defs[p].Kind; k {
	case vector.KindFloat64:
		return vector.Float64(math.Float64frombits(w))
	case vector.KindString:
		return vector.String_(t.cols[p].Dict().Str(uint32(w)))
	default:
		return vector.Value{Kind: k, I: int64(w)}
	}
}

// visible returns how many tail rows a read at version ver sees.
func (t *propTable) visible(ver uint64) int {
	return sort.Search(int(t.nTail.Load()), func(r int) bool { c, i := t.tailRow(r); return c.ver[i] > ver })
}

// appendTail appends the tail row of v, committed at ver, and returns its
// index. Appends are serialized by the caller.
func (t *propTable) appendTail(v vector.VID, ext int64, ver uint64, props []vector.Value) int {
	r := int(t.nTail.Load())
	c := chunkAt(&t.chunks, r>>tailShift, func() *rowChunk { return &rowChunk{vals: make([]uint64, len(t.defs)<<tailShift)} })
	i := r & (tailRows - 1)
	c.vid[i], c.ext[i], c.ver[i] = v, ext, ver
	for p, d := range t.defs {
		var val vector.Value
		if p < len(props) {
			val = props[p]
		}
		w := uint64(val.I)
		switch d.Kind {
		case vector.KindFloat64:
			w = math.Float64bits(val.F)
		case vector.KindString:
			w = uint64(t.cols[p].Dict().Intern(val.S))
		}
		c.vals[p<<tailShift|i] = w
	}
	t.indexExt(ext, r)
	t.nTail.Store(int64(r + 1))
	return r
}

// chunkAt returns chunk c of the chunk list behind p, first publishing a
// copy of the list extended with fresh chunks up to c when it is shorter.
// Chunks never move; only the list of pointers is copied.
func chunkAt[T any](p *atomic.Pointer[[]*T], c int, fresh func() *T) *T {
	var chunks []*T
	if cur := p.Load(); cur != nil {
		chunks = *cur
	}
	if c >= len(chunks) {
		next := append([]*T(nil), chunks...)
		for len(next) <= c {
			next = append(next, fresh())
		}
		p.Store(&next)
		chunks = next
	}
	return chunks[c]
}

// extIndex maps the tail's external ids to rows without a lock: open
// addressing over row+1 (0 marks an empty slot), probed linearly and at most
// half full. An append that would pass that publishes a copy twice the size.
type extIndex struct {
	slots []atomic.Uint32 // a power of two of them
	n     int             // slots in use; written only by the serialized appends
}

// slot returns the slot of ix holding ext's row, or the empty slot where it
// would go.
func (t *propTable) slot(ix *extIndex, ext int64) *atomic.Uint32 {
	for i := int(uint64(ext)*0x9E3779B97F4A7C15>>32) & (len(ix.slots) - 1); ; i = (i + 1) & (len(ix.slots) - 1) {
		if s := ix.slots[i].Load(); s == 0 || t.tailExt(int(s-1)) == ext {
			return &ix.slots[i]
		}
	}
}

// tailExt returns the external id of tail row r.
func (t *propTable) tailExt(r int) int64 {
	c, i := t.tailRow(r)
	return c.ext[i]
}

// indexExt points ext at tail row r. A row of the same id committed before
// is replaced: the newest commit wins.
func (t *propTable) indexExt(ext int64, r int) {
	ix := t.index.Load()
	if ix == nil || 2*(ix.n+1) > len(ix.slots) {
		next := &extIndex{slots: make([]atomic.Uint32, 16)}
		if ix != nil {
			next.slots, next.n = make([]atomic.Uint32, 2*len(ix.slots)), ix.n
			for i := range ix.slots {
				if s := ix.slots[i].Load(); s != 0 {
					t.slot(next, t.tailExt(int(s-1))).Store(s)
				}
			}
		}
		t.index.Store(next)
		ix = next
	}
	s := t.slot(ix, ext)
	if s.Load() == 0 {
		ix.n++
	}
	s.Store(uint32(r + 1))
}

func (t *propTable) memBytes() int {
	n := len(t.vids)*4 + len(t.byExt)*16
	for _, c := range t.cols {
		n += c.MemBytes()
		if d := c.Dict(); d != nil {
			n += d.MemBytes()
		}
	}
	if p := t.chunks.Load(); p != nil {
		n += len(*p) * (20 + 8*len(t.defs)) << tailShift
	}
	if ix := t.index.Load(); ix != nil {
		n += 4 * len(ix.slots)
	}
	return n
}
