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

// Manager is the version manager of §5: it owns the global version counter
// (initialized to zero), the vertex lock table, and the overlay store.
//
// Lock order (checked by geslint rule R2): commit publication holds commitMu
// while installing committed values into per-vertex overlays (vertexOverlay.mu)
// and registering new overlays in the maps (Manager.mu, also via
// ensureOverlay). No path acquires commitMu while holding either inner lock,
// and the two inner locks never nest with each other. Commit also reads the
// catalog (edge-type schemas) under commitMu; Catalog.mu is a leaf read
// lock that no catalog path nests further, so the order is safe.
//
//geslint:lockorder Manager.commitMu < Manager.mu
//geslint:lockorder Manager.commitMu < vertexOverlay.mu
//geslint:lockorder Manager.commitMu < Catalog.mu
type Manager struct {
	graph *storage.Graph

	version atomic.Uint64 // last committed version
	nextVID atomic.Uint64 // next VID for transactionally created vertices

	commitMu sync.Mutex // serializes version assignment + publication

	locks lockTable

	mu       sync.RWMutex // guards the maps below
	overlays map[vector.VID]*vertexOverlay
	// base has one slot per base vertex, set (under mu) once the vertex gets
	// an overlay and never cleared. Every expand source, gathered row and
	// Prop asks, most base vertices are never written, and the written ones
	// are the hot ones: one atomic load answers either way, so a reader of
	// base vertices never touches the lock the committer takes. Created
	// vertices (VID >= base count) take the map.
	base    []atomic.Pointer[vertexOverlay]
	byExt   map[extKey]extEntry
	byLabel map[catalog.LabelID][]extEntry // created vertices per label
	created []extEntry                     // all created vertices, version-ascending
	count   atomic.Int64                   // number of overlay vertices (fast emptiness check)

	pinMu  sync.Mutex
	pins   map[uint64]int // pinned snapshot versions -> refcount
	gcRuns atomic.Int64
}

// NewManager wraps a bulk-loaded base graph. The base must not be mutated
// once transactions begin.
func NewManager(g *storage.Graph) *Manager {
	m := &Manager{
		graph:    g,
		overlays: make(map[vector.VID]*vertexOverlay),
		base:     make([]atomic.Pointer[vertexOverlay], g.NumVertices()),
		byExt:    make(map[extKey]extEntry),
		byLabel:  make(map[catalog.LabelID][]extEntry),
		pins:     make(map[uint64]int),
	}
	m.nextVID.Store(uint64(g.NumVertices()))
	return m
}

// Graph returns the underlying base graph.
func (m *Manager) Graph() *storage.Graph { return m.graph }

// Version returns the last committed version.
func (m *Manager) Version() uint64 { return m.version.Load() }

// Snapshot returns a non-blocking read view at the current committed
// version.
func (m *Manager) Snapshot() *Snapshot {
	return &Snapshot{m: m, ver: m.version.Load(), hasOverlays: m.count.Load() > 0}
}

// SnapshotAt returns a read view at an explicit version (time travel for
// tests and auditing).
func (m *Manager) SnapshotAt(ver uint64) *Snapshot {
	return &Snapshot{m: m, ver: ver, hasOverlays: m.count.Load() > 0}
}

// overlayOf returns the overlay of v, or nil.
func (m *Manager) overlayOf(v vector.VID) *vertexOverlay {
	if int(v) < len(m.base) {
		return m.base[v].Load()
	}
	m.mu.RLock()
	vo := m.overlays[v]
	m.mu.RUnlock()
	return vo
}

// ensureOverlay returns (creating if needed) the overlay of v.
func (m *Manager) ensureOverlay(v vector.VID) *vertexOverlay {
	// Most writes land on a vertex that already has one; only a first write
	// takes the exclusive lock, which is what makes readers wait.
	if vo := m.overlayOf(v); vo != nil {
		return vo
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vo, ok := m.overlays[v]
	if !ok {
		vo = &vertexOverlay{}
		if int(v) < len(m.base) {
			m.base[v].Store(vo)
		}
		m.overlays[v] = vo
		m.count.Add(1)
	}
	return vo
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

// Stats reports overlay-store gauges (instrumentation).
func (m *Manager) Stats() (overlayVertices int, version uint64) {
	return int(m.count.Load()), m.version.Load()
}

// errTxnDone guards against use-after-finish.
var errTxnDone = fmt.Errorf("txn: transaction already finished")
