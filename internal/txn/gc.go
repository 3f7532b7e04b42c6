package txn

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// Version collection. Committed edges are collected by the graph: a reseal
// folds the delta entries at or below the GC horizon into the next image
// (storage.Graph.BindVersions makes this manager the horizon's source).
// Property versions are collected here: long-running GES instances
// accumulate them on hot vertices, and GC folds every chain prefix at or
// below the horizon into its newest entry. Snapshots at versions older than
// the horizon must no longer be read — the standard MVCC GC contract — so the
// manager tracks pinned snapshot versions and derives the horizon from them.

// pin tracking ------------------------------------------------------------

// AcquireSnapshot returns a snapshot whose version is pinned until Release
// is called: neither GC nor a reseal advances past a pinned version.
func (m *Manager) AcquireSnapshot() *Snapshot {
	s := m.SnapshotAt(m.pin())
	s.pinned = true
	return s
}

// Release unpins a snapshot obtained from AcquireSnapshot. It is idempotent
// per snapshot.
func (m *Manager) Release(s *Snapshot) {
	if s == nil || !s.pinned {
		return
	}
	s.pinned = false
	m.unpin(s.ver)
}

// pin pins the current version and returns it. The version is read under
// pinMu, the lock GCHorizon reads it under, so no horizon ever passes a
// version that is being pinned. Pins are appended at the newest version, so
// the list stays ascending; once its capacity has grown, pinning allocates
// nothing.
func (m *Manager) pin() uint64 {
	m.pinMu.Lock()
	ver := m.version.Load()
	if k := len(m.pins); k > 0 && m.pins[k-1].ver == ver {
		m.pins[k-1].n++
	} else {
		m.pins = append(m.pins, pin{ver: ver, n: 1})
	}
	m.pinned++
	m.pinMu.Unlock()
	return ver
}

// unpin drops one pin of ver, in place.
func (m *Manager) unpin(ver uint64) {
	m.pinMu.Lock()
	for i := range m.pins {
		if m.pins[i].ver != ver {
			continue
		}
		if m.pins[i].n--; m.pins[i].n == 0 {
			m.pins = append(m.pins[:i], m.pins[i+1:]...)
		}
		m.pinned--
		break
	}
	m.pinMu.Unlock()
}

// GCHorizon returns the newest version that is safe to collect up to: the
// smallest pinned snapshot version (or the current version when nothing is
// pinned).
func (m *Manager) GCHorizon() uint64 {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	if len(m.pins) > 0 {
		return m.pins[0].ver
	}
	return m.version.Load()
}

// Pins returns the number of live pinned snapshots.
func (m *Manager) Pins() int {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	return m.pinned
}

// GC compacts every record's property version chain below the safe horizon:
// for each property, versions at or below the horizon collapse into the
// single newest one. It returns the number of property versions dropped.
func (m *Manager) GC() int {
	horizon := m.GCHorizon()
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	dropped := 0
	m.overlays.Range(func(v vector.VID, vo *vertexOverlay) {
		props, n := compactProps(vo.props, horizon)
		if n == 0 {
			return
		}
		next := *vo
		next.props = props
		m.overlays.Store(v, &next)
		dropped += n
	})
	m.gcRuns.Add(1)
	return dropped
}

// compactProps returns the chain keeping, for each property, only the newest
// entry at or below horizon, plus everything above it — and how many entries
// it dropped.
func compactProps(props []propVersion, horizon uint64) ([]propVersion, int) {
	// Newest survivor per pid at or below the horizon.
	survivors := map[catalog.PropID]int{}
	for i, pv := range props {
		if pv.version > horizon {
			continue
		}
		if cur, ok := survivors[pv.pid]; !ok || props[cur].version < pv.version {
			survivors[pv.pid] = i
		}
	}
	var next []propVersion
	for i, pv := range props {
		if pv.version > horizon || survivors[pv.pid] == i {
			next = append(next, pv)
		}
	}
	return next, len(props) - len(next)
}

// GCRuns reports how many GC passes have completed.
func (m *Manager) GCRuns() int64 { return m.gcRuns.Load() }
