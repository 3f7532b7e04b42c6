package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/stats"
	"ges/internal/vector"
)

// AnyLabel is the wildcard destination label: Neighbors probes every
// adjacency family of the (srcLabel, edgeType, direction) prefix. Queries
// over supertypes (e.g. LDBC "Message" = Post ∪ Comment) rely on this.
const AnyLabel = catalog.LabelID(0xFFFF)

// Segment is one family's run of neighbors handed to the executor's
// pointer-based join: VIDs is ascending and a view into storage-owned memory
// (never copy, never mutate), and the Prop* slices — populated only when
// requested — are the edge-property runs aligned element-for-element with
// VIDs.
type Segment struct {
	VIDs    []vector.VID
	PropI64 [][]int64
	PropF64 [][]float64
	PropStr [][]string
}

// View is the read interface the executor runs against. It has two
// implementations: the *Graph, reading every published commit, and the
// VersionView a transaction snapshot reads, the graph as of one commit
// version (At; §5, Concurrency Control).
type View interface {
	// Catalog returns the shared name catalog.
	Catalog() *catalog.Catalog
	// LabelOf returns the label of vertex v.
	LabelOf(v vector.VID) catalog.LabelID
	// ExtID returns the external 64-bit identifier of vertex v.
	ExtID(v vector.VID) int64
	// VertexByExt resolves an external identifier within a label.
	VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool)
	// Prop returns property p of vertex v, where p indexes the schema of
	// v's label.
	Prop(v vector.VID, p catalog.PropID) vector.Value
	// GatherProps bulk-fetches property pid for every selected row whose
	// vertex carries the given label, writing values into the matching rows
	// of out (pre-sized to len(vids)); other rows are left untouched.
	GatherProps(vids []vector.VID, label catalog.LabelID, pid catalog.PropID, sel *vector.Bitset, out *vector.Column)
	// GatherExtIDs bulk-fetches external identifiers for selected rows into
	// out (pre-sized to len(vids)).
	GatherExtIDs(vids []vector.VID, sel *vector.Bitset, out []int64)
	// Neighbors appends the neighbor segments of src over edge type et in
	// direction dir toward dstLabel (or AnyLabel) to buf and returns it.
	// withProps populates the aligned edge-property runs.
	Neighbors(buf []Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []Segment
	// NeighborsBatch resolves the neighbors of every source in one call,
	// filling out with one run per source (aligned with srcs; NilVID
	// sources yield empty runs). Run i holds one piece per segment of
	// Neighbors(srcs[i]), in order and labelled with its destination — the
	// batched and scalar paths are byte-identical — each a view of storage
	// where the scalar segment is one; out.Sorted reports whether every run
	// is ascending by VID (one piece: the precondition for intersection
	// joins).
	NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch)
	// Degree returns the total neighbor count that Neighbors would yield.
	Degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int
	// ScanLabel returns all vertices of a label. The result is shared and
	// must not be mutated.
	ScanLabel(label catalog.LabelID) []vector.VID
	// NumVertices returns the number of vertices visible in this view.
	NumVertices() int
}

// Graph is the storage. Bulk loading (AddVertex / AddEdge) is single-writer
// and ends at the first SealCSR, which the graph's first read performs if the
// loader did not. The seal is the boundary: from then on the only way to
// change the graph is a commit, stamped with its version (at least 1) — the
// vertices a transaction created as rows past the base arrays (CommitVertex),
// its edges into the sealed images' deltas (CommitEdge) — which may run
// concurrently with readers. The graph is the commits' only home, reads at an
// older version do not see them (At), and reseals fold the edges into the
// images up to the bound manager's horizon (BindVersions). No row, vertex or
// edge is ever changed or removed once written.
type Graph struct {
	cat *catalog.Catalog

	// The base vertices' arrays, frozen once a transaction manager binds.
	labelOf []catalog.LabelID
	rowOf   []uint32
	extOf   []int64

	// tables is the per-label property table directory, republished
	// extended when a commit creates the first vertex of a label past it.
	tables atomic.Pointer[[]*propTable]

	// fams is the immutable family directory, republished copy-on-write
	// (under famMu) when a mutation first touches a (src,et,dst,dir)
	// combination — so a rare sealed-phase family creation is one atomic
	// swap that concurrent readers never observe mid-update.
	fams  atomic.Pointer[famTable]
	famMu sync.Mutex

	// tail is the per-VID array of the vertices transactions created, past
	// the base's: chunk i holds the entries of VIDs len(labelOf)+i*1024
	// onward. Chunks never move and only the chunk list is copied when it
	// grows, so a read resolves a created vertex's label and row with two
	// loads and no lock.
	tail atomic.Pointer[[]*vidChunk]

	// versions is the bound transaction manager (BindVersions): the source of
	// the fold horizon reseals fold delta entries up to. Nil until one binds.
	versions atomic.Pointer[versionBinding]

	edgeCount atomic.Int64

	// sealedPhase turns true at the first SealCSR and marks the switch
	// from bulk loading (edge logs) to the overlay write path (sealed image +
	// delta): no family created after it ever has a log. bulkSeal runs that
	// first SealCSR once for the first readers (sealBulk).
	sealedPhase atomic.Bool
	bulkSeal    sync.Once

	// resealFrac/resealMin gate the background reseal: a family rebuilds
	// once its delta holds at least resealMin entries and more than
	// resealFrac of its sealed entry count. resealSubmit, when set, runs
	// the rebuild off the mutating goroutine (internal/sched); nil or a
	// false return reseals inline.
	resealFrac   float64
	resealMin    int
	resealSubmit func(task func()) bool

	resealCount atomic.Int64 // background reseals completed
	resealNanos atomic.Int64 // total wall time spent resealing

	// statsSnap is the planner's statistics snapshot (stats.go): rebuilt
	// by SealCSR, rebased (fresh epoch, one family's summary replaced) by
	// background reseals, never cleared once published. statsEpoch gives
	// every publication a fresh epoch; statsMu serializes the publishers.
	// statsStale counts mutations since the last publication.
	statsSnap  atomic.Pointer[stats.Snapshot]
	statsEpoch atomic.Uint64
	statsMu    sync.Mutex
	statsStale atomic.Int64
}

// famTable is one immutable snapshot of the family directory: the per-key
// adjacency families and the (src,et,dir) index AnyLabel probes fan out
// over.
//
//geslint:snapshot-owner immutable after publication; family creation swaps in a copied table under famMu
type famTable struct {
	adj    map[AdjKey]*AdjList
	famIdx map[famKey][]famEntry
}

type famKey struct {
	src catalog.LabelID
	et  catalog.EdgeTypeID
	dir catalog.Direction
}

type famEntry struct {
	dst  catalog.LabelID
	list *AdjList
}

// DefaultResealFraction is the delta share of a family's sealed entries
// above which a background reseal is scheduled.
const DefaultResealFraction = 1.0 / 16

// DefaultResealMinDelta floors the reseal trigger so small families don't
// rebuild on every mutation.
const DefaultResealMinDelta = 64

// NewGraph returns an empty base graph over the catalog.
func NewGraph(cat *catalog.Catalog) *Graph {
	g := &Graph{
		cat:        cat,
		resealFrac: DefaultResealFraction,
		resealMin:  DefaultResealMinDelta,
	}
	g.fams.Store(&famTable{
		adj:    make(map[AdjKey]*AdjList),
		famIdx: make(map[famKey][]famEntry),
	})
	g.tables.Store(new([]*propTable))
	return g
}

// SetResealPolicy overrides the background-reseal trigger: a family reseals
// once its delta holds at least minDelta entries and more than frac times
// its sealed entry count. Non-positive arguments keep the defaults. Set
// before concurrent readers start.
func (g *Graph) SetResealPolicy(frac float64, minDelta int) {
	if frac > 0 {
		g.resealFrac = frac
	}
	if minDelta > 0 {
		g.resealMin = minDelta
	}
}

// VersionSource is the transaction manager a graph's commits come from: the
// graph's own reads see the commits up to its Version — the last one
// published — and a reseal folds the delta entries stamped at or below its
// GCHorizon — the oldest version a live snapshot may still read — and no
// newer ones.
type VersionSource interface {
	Version() uint64
	GCHorizon() uint64
}

type versionBinding struct{ src VersionSource }

// BindVersions makes src the graph's transaction manager and returns the
// manager the graph is bound to: src, or the one an earlier call bound, for a
// graph has one version sequence. Binding seals a graph still in the bulk
// phase, because commits write into the sealed images' deltas. It is wiring,
// like SetResealSubmit: bind before transactions start.
func (g *Graph) BindVersions(src VersionSource) VersionSource {
	g.sealBulk()
	g.versions.CompareAndSwap(nil, &versionBinding{src: src})
	return g.versions.Load().src
}

// readVersion is the version the graph's own reads see: the bound manager's
// last published commit — so no read sees a commit still being written — or
// every entry while none is bound.
func (g *Graph) readVersion() uint64 {
	if b := g.versions.Load(); b != nil {
		return b.src.Version()
	}
	return Latest
}

// foldHorizon is the version up to which a reseal folds: the bound manager's
// GC horizon, or every entry when none is bound.
func (g *Graph) foldHorizon() uint64 {
	if b := g.versions.Load(); b != nil {
		return b.src.GCHorizon()
	}
	return Latest
}

// SetResealSubmit injects the executor background reseals run on (the
// scheduler's non-blocking submit); nil, or a false return when the pool is
// saturated, reseals inline on the mutating goroutine. Set before
// concurrent readers start.
func (g *Graph) SetResealSubmit(submit func(task func()) bool) { g.resealSubmit = submit }

// Catalog returns the graph's catalog.
func (g *Graph) Catalog() *catalog.Catalog { return g.cat }

// AddVertex inserts a vertex with an external identifier and property values
// ordered per the label's schema, returning its dense VID. It is the bulk
// path: once the graph is sealed, vertices are created by commits
// (CommitVertex), at the VIDs past the base the bound manager allocates.
func (g *Graph) AddVertex(label catalog.LabelID, extID int64, props ...vector.Value) (vector.VID, error) {
	if int(label) >= g.cat.NumLabels() {
		return vector.NilVID, fmt.Errorf("storage: unknown label %d", label)
	}
	if g.sealedPhase.Load() {
		return vector.NilVID, fmt.Errorf("storage: AddVertex on a sealed graph")
	}
	t := g.tableFor(label)
	if _, dup := t.byExt[extID]; dup {
		return vector.NilVID, fmt.Errorf("storage: duplicate external id %d for label %s", extID, g.cat.LabelName(label))
	}
	vid := vector.VID(len(g.labelOf))
	row := t.addRow(vid, extID, props)
	g.labelOf = append(g.labelOf, label)
	g.rowOf = append(g.rowOf, row)
	g.extOf = append(g.extOf, extID)
	return vid, nil
}

// AddEdge appends a directed edge src→dst of type et, with edge-property
// values ordered per the edge type's schema, to the bulk load: both the
// forward (Out) and reverse (In) adjacency families' edge logs. It is the bulk
// path: once the graph is sealed, edges are written by commits (CommitEdge).
func (g *Graph) AddEdge(et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) error {
	if g.sealedPhase.Load() {
		return fmt.Errorf("storage: AddEdge on a sealed graph")
	}
	return g.addEdge(0, et, src, dst, props)
}

// CommitEdge writes the edge of a committed transaction, stamped with the
// commit version ver (at least 1), into the sealed images' deltas — a graph
// still in the bulk phase is sealed first — so reads at an older version (At)
// do not see it until a reseal at a horizon of at least ver folds it into the
// image. Endpoints may be base vertices or vertices transactions created
// (CommitVertex).
func (g *Graph) CommitEdge(ver uint64, et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) error {
	if ver == 0 {
		return fmt.Errorf("storage: edge committed at version 0")
	}
	g.sealBulk()
	return g.addEdge(ver, et, src, dst, props)
}

// addEdge checks the edge and writes both its directions: into the edge logs
// in the bulk phase, into the deltas stamped ver after it.
func (g *Graph) addEdge(ver uint64, et catalog.EdgeTypeID, src, dst vector.VID, props []vector.Value) error {
	if int(et) >= g.cat.NumEdgeTypes() {
		return fmt.Errorf("storage: unknown edge type %d", et)
	}
	sl, dl := g.labelAt(src), g.labelAt(dst)
	if sl == noLabel || dl == noLabel {
		return fmt.Errorf("storage: edge with unknown vertex (src=%d dst=%d)", src, dst)
	}
	outKey := AdjKey{Src: sl, Et: et, Dst: dl, Dir: catalog.Out}
	inKey := AdjKey{Src: dl, Et: et, Dst: sl, Dir: catalog.In}
	lo, li := g.family(outKey), g.family(inKey)
	lo.insert(src, dst, ver, props)
	li.insert(dst, src, ver, props)
	g.edgeCount.Add(1)
	g.noteMutation()
	g.maybeReseal(outKey, lo)
	g.maybeReseal(inKey, li)
	return nil
}

// vidChunk is one chunk of the created vertices' per-VID array: row<<16 |
// label+1 — the row in the label table's tail — or 0 for a VID no committed
// vertex holds (one an aborted transaction allocated is a hole for ever).
type vidChunk [1024]atomic.Uint64

// CommitVertex appends v, a vertex a committed transaction created, stamped
// with the commit version ver (at least 1): its label table's tail row (the
// external id and the properties in the label's schema order) and its per-VID
// entry. Its VID is past the base; reads at versions below ver (At) do not
// scan or look it up. A commit calls it before it writes any edge naming v.
// Calls are serialized by the caller.
func (g *Graph) CommitVertex(ver uint64, v vector.VID, label catalog.LabelID, ext int64, props ...vector.Value) error {
	if ver == 0 || int(v) < len(g.labelOf) || v == vector.NilVID || int(label) >= g.cat.NumLabels() {
		return fmt.Errorf("storage: created vertex %d with label %d at version %d", v, label, ver)
	}
	r := g.tableFor(label).appendTail(v, ext, ver, props)
	i := int(v) - len(g.labelOf)
	chunkAt(&g.tail, i>>10, func() *vidChunk { return new(vidChunk) })[i&1023].Store(uint64(r)<<16 | uint64(label) + 1)
	return nil
}

// tableFor returns label's property table, first publishing a directory
// extended up to it when the label has none. Callers are serialized.
func (g *Graph) tableFor(label catalog.LabelID) *propTable {
	ts := *g.tables.Load()
	if int(label) < len(ts) {
		return ts[label]
	}
	next := append([]*propTable(nil), ts...)
	for len(next) <= int(label) {
		next = append(next, newPropTable(g.cat.LabelProps(catalog.LabelID(len(next)))))
	}
	g.tables.Store(&next)
	return next[label]
}

// table returns label's property table, or nil.
func (g *Graph) table(label catalog.LabelID) *propTable {
	if ts := *g.tables.Load(); int(label) < len(ts) {
		return ts[label]
	}
	return nil
}

// noLabel is labelAt's answer for NilVID and every other VID the graph holds
// no vertex for (no vertex carries the wildcard label).
const noLabel = AnyLabel

// labelAt returns v's label — a base vertex or one a transaction created —
// or noLabel. Small enough to inline: a base vertex costs one bounds check
// and one load.
//
//geslint:kernel
func (g *Graph) labelAt(v vector.VID) catalog.LabelID {
	if int(v) < len(g.labelOf) {
		return g.labelOf[v]
	}
	l, _ := g.tailAt(v)
	return l
}

// tailAt returns the label and tail row of v, a VID past the base, or
// noLabel.
//
//geslint:kernel
func (g *Graph) tailAt(v vector.VID) (catalog.LabelID, int) {
	p := g.tail.Load()
	if p == nil {
		return noLabel, 0
	}
	i := uint(v) - uint(len(g.labelOf))
	if c := i >> 10; c < uint(len(*p)) {
		if e := (*p)[c][i&1023].Load(); e != 0 {
			return catalog.LabelID(e&0xFFFF - 1), int(e >> 16)
		}
	}
	return noLabel, 0
}

// family returns (creating on demand) the adjacency family for key.
func (g *Graph) family(key AdjKey) *AdjList {
	if l, ok := g.fams.Load().adj[key]; ok {
		return l
	}
	return g.addFamily(key)
}

// addFamily publishes a copy of the family directory extended with key.
// The maps inside a published famTable are immutable, so the copy (plus a
// fresh slice for the one famIdx bucket that grows) is what makes the rare
// sealed-phase family creation safe under concurrent readers.
func (g *Graph) addFamily(key AdjKey) *AdjList {
	g.famMu.Lock()
	defer g.famMu.Unlock()
	old := g.fams.Load()
	if l, ok := old.adj[key]; ok {
		return l
	}
	l := newAdjList(g.cat.EdgeTypeProps(key.Et))
	if g.sealedPhase.Load() {
		// The sealed phase has no log: the family is born with an empty
		// image and its first edge is a delta insert like any other.
		l.snap.Store(l.sealCSR())
	}
	nt := &famTable{
		adj:    make(map[AdjKey]*AdjList, len(old.adj)+1),
		famIdx: make(map[famKey][]famEntry, len(old.famIdx)+1),
	}
	for k, v := range old.adj {
		nt.adj[k] = v
	}
	for k, v := range old.famIdx {
		nt.famIdx[k] = v
	}
	nt.adj[key] = l
	fk := famKey{src: key.Src, et: key.Et, dir: key.Dir}
	bucket := append([]famEntry(nil), nt.famIdx[fk]...)
	nt.famIdx[fk] = append(bucket, famEntry{dst: key.Dst, list: l})
	g.fams.Store(nt)
	return l
}

// LabelOf implements View: the label of a base vertex or of one a
// transaction created, 0 for a VID the graph holds no vertex for.
func (g *Graph) LabelOf(v vector.VID) catalog.LabelID {
	if l := g.labelAt(v); l != noLabel {
		return l
	}
	return 0
}

// HasVertex reports whether the graph holds a vertex at v.
func (g *Graph) HasVertex(v vector.VID) bool { return g.labelAt(v) != noLabel }

// ExtID implements View: 0 for a VID the graph holds no vertex for.
func (g *Graph) ExtID(v vector.VID) int64 {
	if int(v) < len(g.extOf) {
		return g.extOf[v]
	}
	if l, r := g.tailAt(v); l != noLabel {
		return g.table(l).tailExt(r)
	}
	return 0
}

// VertexByExt implements View at the graph's read version.
func (g *Graph) VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool) {
	return g.At(g.readVersion()).VertexByExt(label, ext)
}

// Prop implements View: the zero Value for a VID the graph holds no vertex
// for.
func (g *Graph) Prop(v vector.VID, p catalog.PropID) vector.Value {
	if int(v) < len(g.labelOf) {
		return g.table(g.labelOf[v]).get(g.rowOf[v], p)
	}
	if l, r := g.tailAt(v); l != noLabel {
		return g.table(l).tailValue(r, p)
	}
	return vector.Value{}
}

// families calls fn for every family Neighbors(src, et, dir, dstLabel) visits,
// in its segment order (Out before In under Both).
func (g *Graph) families(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, fn func(*AdjList)) {
	if dir == catalog.Both {
		g.families(src, et, catalog.Out, dstLabel, fn)
		g.families(src, et, catalog.In, dstLabel, fn)
		return
	}
	srcLabel := g.labelAt(src)
	if srcLabel == noLabel {
		return
	}
	ft := g.fams.Load()
	if dstLabel != AnyLabel {
		if l, ok := ft.adj[AdjKey{Src: srcLabel, Et: et, Dst: dstLabel, Dir: dir}]; ok {
			fn(l)
		}
		return
	}
	for _, fe := range ft.famIdx[famKey{src: srcLabel, et: et, dir: dir}] {
		fn(fe.list)
	}
}

// Neighbors implements View at the graph's read version. A graph still in
// the bulk phase is sealed first.
func (g *Graph) Neighbors(buf []Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []Segment {
	g.sealBulk()
	return g.neighbors(buf, src, et, dir, dstLabel, withProps, g.readVersion())
}

// neighbors serves each family's sorted CSR run (loaded once, so neighbors
// and properties always come from the same image) as a read at ver sees it,
// merged with the image's delta where it changes the run.
func (g *Graph) neighbors(buf []Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, ver uint64) []Segment {
	g.families(src, et, dir, dstLabel, func(l *AdjList) {
		if seg, ok := l.snap.Load().segmentAt(src, withProps, ver); ok {
			buf = append(buf, seg)
		}
	})
	return buf
}

// Degree implements View at the graph's read version. A graph still in the
// bulk phase is sealed first.
func (g *Graph) Degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int {
	g.sealBulk()
	return g.degree(src, et, dir, dstLabel, g.readVersion())
}

func (g *Graph) degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, ver uint64) int {
	n := 0
	g.families(src, et, dir, dstLabel, func(l *AdjList) {
		n += l.snap.Load().runLen(src, ver)
	})
	return n
}

// VersionView is the graph as a read at one commit version sees it — a
// transaction snapshot: delta entries stamped after the version are hidden
// from every adjacency read, and vertices committed after it from scans,
// counts and external-id lookups. Every other read is the graph's own: a
// vertex is reached only through those, and no property changes once its row
// is written, so its label, external id and properties — gathers, zone
// pruning and column sharing included — are exact at every version.
type VersionView struct {
	*Graph
	ver uint64
}

// At returns the graph's view at commit version ver.
func (g *Graph) At(ver uint64) VersionView { return VersionView{Graph: g, ver: ver} }

// Version returns the commit version the view reads at.
func (v VersionView) Version() uint64 { return v.ver }

// Neighbors implements View at the view's version.
func (v VersionView) Neighbors(buf []Segment, src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool) []Segment {
	return v.Graph.neighbors(buf, src, et, dir, dstLabel, withProps, v.ver)
}

// NeighborsBatch implements View at the view's version.
func (v VersionView) NeighborsBatch(srcs []vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID, withProps bool, out *Batch) {
	v.Graph.neighborsBatch(srcs, et, dir, dstLabel, withProps, v.ver, out)
}

// Degree implements View at the view's version.
func (v VersionView) Degree(src vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int {
	return v.Graph.degree(src, et, dir, dstLabel, v.ver)
}

// ScanLabel implements View at the view's version: the base rows, then the
// visible tail rows in commit order. With none of the latter it is the base
// slice itself (zero copy).
func (v VersionView) ScanLabel(label catalog.LabelID) []vector.VID {
	t := v.table(label)
	if t == nil {
		return nil
	}
	n := t.visible(v.ver)
	if n == 0 {
		return t.vids
	}
	out := make([]vector.VID, len(t.vids), len(t.vids)+n)
	copy(out, t.vids)
	for r := 0; r < n; r++ {
		c, i := t.tailRow(r)
		out = append(out, c.vid[i])
	}
	return out
}

// NumVertices implements View at the view's version.
func (v VersionView) NumVertices() int {
	n := len(v.labelOf)
	for _, t := range *v.tables.Load() {
		n += t.visible(v.ver)
	}
	return n
}

// VertexByExt implements View at the view's version.
func (v VersionView) VertexByExt(label catalog.LabelID, ext int64) (vector.VID, bool) {
	t := v.table(label)
	if t == nil {
		return vector.NilVID, false
	}
	if vid, ok := t.byExt[ext]; ok {
		return vid, true
	}
	if ix := t.index.Load(); ix != nil {
		if s := t.slot(ix, ext).Load(); s != 0 {
			if c, i := t.tailRow(int(s - 1)); c.ver[i] <= v.ver {
				return c.vid[i], true
			}
		}
	}
	return vector.NilVID, false
}

// ScanLabel implements View at the graph's read version.
func (g *Graph) ScanLabel(label catalog.LabelID) []vector.VID {
	return g.At(g.readVersion()).ScanLabel(label)
}

// NumVertices implements View: every vertex at the graph's read version.
func (g *Graph) NumVertices() int { return g.At(g.readVersion()).NumVertices() }

// NumEdges returns the number of directed edges, committed ones included.
func (g *Graph) NumEdges() int { return int(g.edgeCount.Load()) }

// CountLabel returns how many committed vertices carry the given label.
func (g *Graph) CountLabel(label catalog.LabelID) int {
	if t := g.table(label); t != nil {
		return len(t.vids) + int(t.nTail.Load())
	}
	return 0
}

// MemBytes returns the approximate resident size of the graph — topology
// (each family's sealed image and delta, or its edge log in the bulk phase),
// vertices and their properties, and the family indexes: the paper's "graph
// size" (Table 1).
func (g *Graph) MemBytes() int {
	n := len(g.labelOf)*2 + len(g.rowOf)*4 + len(g.extOf)*8
	if p := g.tail.Load(); p != nil {
		n += len(*p) * 8 * 1024
	}
	for _, t := range *g.tables.Load() {
		n += t.memBytes()
	}
	ft := g.fams.Load()
	for _, l := range ft.adj {
		n += l.memBytes()
	}
	// Family hash table: AdjKey (8 bytes) + pointer + bucket overhead per
	// entry.
	n += len(ft.adj) * (8 + 8 + 16)
	// AnyLabel family index: per key the famKey + slice header, per entry
	// one famEntry (label + pointer).
	n += len(ft.famIdx) * (8 + 24)
	for _, fes := range ft.famIdx {
		n += len(fes) * 16
	}
	return n
}

// trimVertexArrays drops the append slack the bulk load left in the
// per-vertex arrays and the property tables.
func (g *Graph) trimVertexArrays() {
	g.labelOf, g.rowOf, g.extOf = vector.Clipped(g.labelOf), vector.Clipped(g.rowOf), vector.Clipped(g.extOf)
	for _, t := range *g.tables.Load() {
		t.vids = vector.Clipped(t.vids)
		for _, c := range t.cols {
			c.Clip()
		}
	}
}
