// Package txn implements GES's concurrency control (§5): Multi-Version
// Two-Phase Locking with vertex-level versioning. Write transactions declare
// their write sets up front and acquire vertex locks in canonical order
// (two-phase locking without deadlocks); a commit publishes all its writes
// under one global version. Read queries run against snapshots — the graph as
// of one version, storage.VersionView — and never block.
//
// A commit writes its vertices and edges into the storage graph, stamped with
// its version: each created vertex as a row past the base arrays
// (storage.Graph.CommitVertex), each edge into the sealed images' deltas
// (storage.Graph.CommitEdge). Nothing else changes after the seal — no row is
// updated or removed — so the graph is the only home of versioned state: a
// snapshot reads it as of its version (storage.Graph.At), and a reseal folds
// the edges into the images up to the GC horizon — the oldest pinned snapshot
// — which the manager is the graph's source of: the fold is how old versions
// are collected.
package txn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ges/internal/storage"
	"ges/internal/vector"
)

// pin is one pinned snapshot version and how many live snapshots hold it.
type pin struct {
	ver uint64
	n   int
}

// Manager is the version manager of §5: it owns the global version counter
// (initialized to zero), the vertex lock table, and the pins that hold back
// the graph's fold horizon.
//
// Lock order (checked by geslint rule R2): commit publication holds commitMu
// while appending created vertices to the graph (Dict.mu, interning their
// string properties) and writing edges into it (AdjList.wmu per family,
// Graph.famMu when a commit creates a family) and, when a write crosses the
// reseal policy with no executor to hand it to, while resealing inline (the
// rebased statistics publish under Graph.statsMu). No graph path acquires
// commitMu.
// Family creation reads the catalog (edge-type schemas); Catalog.mu is a leaf
// read lock that no catalog path nests further, so the order is safe.
//
//geslint:lockorder Manager.commitMu < AdjList.wmu
//geslint:lockorder Manager.commitMu < Graph.famMu
//geslint:lockorder Manager.commitMu < Graph.statsMu
//geslint:lockorder Manager.commitMu < Catalog.mu
//geslint:lockorder Manager.commitMu < Dict.mu
type Manager struct {
	graph *storage.Graph

	version atomic.Uint64 // last committed version
	nextVID atomic.Uint64 // next VID for transactionally created vertices

	// commitMu serializes version assignment and publication.
	commitMu sync.Mutex

	locks lockTable

	pinMu  sync.Mutex
	pins   []pin // pinned versions, ascending
	pinned int   // live pinned snapshots
}

// NewManager returns g's transaction manager: a fresh one bound as the
// graph's version source — which seals a graph still in the bulk phase, since
// commits write into the sealed images' deltas — or the one bound before, for
// a graph has one version sequence. The VIDs past the graph's vertices are
// the manager's to allocate.
func NewManager(g *storage.Graph) *Manager {
	m := &Manager{graph: g}
	m.nextVID.Store(uint64(g.NumVertices()))
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
func (m *Manager) Snapshot() storage.VersionView { return m.graph.At(m.version.Load()) }

// Begin starts a write transaction whose write set (the vertices it will
// modify) is declared up front, per the paper: "write queries update the
// graph with known write sets in advance". All locks are acquired here, in
// canonical order, and held until Commit or Abort — two-phase locking
// without deadlock risk.
func (m *Manager) Begin(writeSet []vector.VID) *Txn {
	set := slices.Clone(writeSet)
	slices.Sort(set)
	set = slices.Compact(set)
	m.locks.acquire(set)
	return &Txn{m: m, locked: set, readVer: m.version.Load()}
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
	stripes := make([]int, len(vs))
	for i, v := range vs {
		stripes[i] = lt.stripeOf(v)
	}
	slices.Sort(stripes)
	return slices.Compact(stripes)
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

// Stats reports the live pinned snapshots and the last committed version
// (instrumentation).
func (m *Manager) Stats() (pins int, version uint64) {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	return m.pinned, m.version.Load()
}

// errTxnDone guards against use-after-finish.
var errTxnDone = fmt.Errorf("txn: transaction already finished")
