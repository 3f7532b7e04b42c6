package txn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// extKey indexes transactionally created vertices by (label, external id).
type extKey struct {
	label catalog.LabelID
	ext   int64
}

type extEntry struct {
	vid vector.VID
	ver uint64
}

// createdIndex lists the vertices transactions created, in commit order — all
// of them and per label — for NumVertices and ScanLabel. A commit that creates
// vertices publishes a successor that appends to the same backing arrays:
// readers read only below their own lengths, so none locks and no commit
// copies a list.
type createdIndex struct {
	all     []extEntry
	byLabel [][]extEntry
}

// visiblePrefix is how many entries of a commit-ordered list exist at s.
func visiblePrefix(list []extEntry, s uint64) int {
	return sort.Search(len(list), func(i int) bool { return list[i].ver > s })
}

// pin is one pinned snapshot version and how many live snapshots hold it.
type pin struct {
	ver uint64
	n   int
}

// Manager is the version manager of §5: it owns the global version counter
// (initialized to zero), the vertex lock table, the vertex records, and the
// pins that hold back the graph's fold horizon.
//
// Lock order (checked by geslint rule R2): commit publication holds commitMu
// while writing edges into the graph (AdjList.wmu per family, Graph.famMu
// when a commit creates a family) and, when a write crosses the reseal
// policy with no executor to hand it to, while resealing inline (the rebased
// statistics publish under Graph.statsMu). No graph path acquires commitMu.
// Family creation reads the catalog (edge-type schemas); Catalog.mu is a leaf
// read lock that no catalog path nests further, so the order is safe.
//
//geslint:lockorder Manager.commitMu < AdjList.wmu
//geslint:lockorder Manager.commitMu < Graph.famMu
//geslint:lockorder Manager.commitMu < Graph.statsMu
//geslint:lockorder Manager.commitMu < Catalog.mu
type Manager struct {
	graph *storage.Graph
	base  vector.VID // the graph's vertex count: created VIDs start here

	// overlays holds the published record of every vertex that has one —
	// created vertices and vertices with property versions — indexed by VID,
	// base and created alike: one lock-free probe per row, and most rows have
	// none. written is the number of base vertices among them: while it is
	// zero a base row needs no probe at all.
	overlays storage.VIDMap[vertexOverlay]
	written  atomic.Int64
	created  atomic.Pointer[createdIndex] // nil until a commit creates a vertex
	byExt    sync.Map                     // extKey -> extEntry of created vertices

	version atomic.Uint64 // last committed version
	nextVID atomic.Uint64 // next VID for transactionally created vertices
	count   atomic.Int64  // records published

	// commitMu serializes version assignment and publication, and GC's
	// record rewrites with both.
	commitMu sync.Mutex

	locks lockTable

	pinMu  sync.Mutex
	pins   []pin // pinned versions, ascending
	pinned int   // live pinned snapshots
	gcRuns atomic.Int64
}

// NewManager returns g's transaction manager: a fresh one bound as the
// graph's version source — which seals a graph still in the bulk phase, since
// commits write into the sealed images' deltas — or the one bound before, for
// a graph has one version sequence.
func NewManager(g *storage.Graph) *Manager {
	m := &Manager{graph: g, base: vector.VID(g.NumVertices())}
	m.nextVID.Store(uint64(m.base))
	return g.BindVersions(m).(*Manager)
}

// Graph returns the underlying graph.
func (m *Manager) Graph() *storage.Graph { return m.graph }

// Version returns the last committed version.
func (m *Manager) Version() uint64 { return m.version.Load() }

// Snapshot returns an unpinned read view at the current committed version. It
// reads exactly that version only while nothing folds past it: a read that
// may overlap later commits — and the reseals they trigger — pins its version
// with AcquireSnapshot.
func (m *Manager) Snapshot() *Snapshot { return m.SnapshotAt(m.version.Load()) }

// SnapshotAt returns an unpinned read view at an explicit version (time
// travel for tests and auditing), under Snapshot's caveat.
func (m *Manager) SnapshotAt(ver uint64) *Snapshot {
	return &Snapshot{m: m, ver: ver, at: m.graph.At(ver)}
}

// overlayOf returns the record of v, or nil.
func (m *Manager) overlayOf(v vector.VID) *vertexOverlay { return m.overlays.Load(v) }

// publish installs rec as v's record. Caller holds commitMu.
func (m *Manager) publish(v vector.VID, rec *vertexOverlay) {
	if m.overlays.Load(v) == nil {
		m.count.Add(1)
		if v < m.base {
			m.written.Add(1)
		}
	}
	m.overlays.Store(v, rec)
}

// Begin starts a write transaction whose write set (the vertices it will
// modify) is declared up front, per the paper: "write queries update the
// graph with known write sets in advance". All locks are acquired here, in
// canonical order, and held until Commit or Abort — two-phase locking
// without deadlock risk.
func (m *Manager) Begin(writeSet []vector.VID) *Txn {
	set := append([]vector.VID(nil), writeSet...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	// Deduplicate after sorting.
	uniq := set[:0]
	var prev vector.VID = vector.NilVID
	for _, v := range set {
		if v != prev {
			uniq = append(uniq, v)
			prev = v
		}
	}
	m.locks.acquire(uniq)
	return &Txn{m: m, locked: uniq, readVer: m.version.Load()}
}

// lockTable is a striped vertex lock table.
type lockTable struct {
	stripes [256]sync.Mutex
}

func (lt *lockTable) stripeOf(v vector.VID) int { return int(v) & 255 }

// stripesOf returns the distinct stripe IDs covering the vertex set, in
// ascending order — the canonical acquisition order shared by all writers,
// which rules out deadlocks.
func (lt *lockTable) stripesOf(vs []vector.VID) []int {
	seen := make(map[int]struct{}, len(vs))
	stripes := make([]int, 0, len(vs))
	for _, v := range vs {
		s := lt.stripeOf(v)
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			stripes = append(stripes, s)
		}
	}
	sort.Ints(stripes)
	return stripes
}

// acquire locks the stripes covering the vertex set in canonical order.
func (lt *lockTable) acquire(vs []vector.VID) {
	for _, s := range lt.stripesOf(vs) {
		lt.stripes[s].Lock()
	}
}

// release unlocks the stripes covering the vertex set.
func (lt *lockTable) release(vs []vector.VID) {
	for _, s := range lt.stripesOf(vs) {
		lt.stripes[s].Unlock()
	}
}

// Stats reports the record count — created vertices plus vertices with
// property versions — and the last committed version (instrumentation).
func (m *Manager) Stats() (overlayVertices int, version uint64) {
	return int(m.count.Load()), m.version.Load()
}

// errTxnDone guards against use-after-finish.
var errTxnDone = fmt.Errorf("txn: transaction already finished")
