package txn

import "ges/internal/storage"

// Version collection is the graph's fold: a reseal folds the delta entries
// at or below the GC horizon into the next image (storage.Graph.BindVersions
// makes this manager the horizon's source). Snapshots at versions older than
// the horizon must no longer be read — the standard MVCC GC contract — so the
// manager tracks pinned snapshot versions and derives the horizon from them.

// AcquireSnapshot returns a snapshot whose version is pinned until Release
// is called: no reseal folds past a pinned version. The view is the one
// allocation a pin makes.
func (m *Manager) AcquireSnapshot() *storage.VersionView {
	s := m.graph.At(m.pin())
	return &s
}

// Release unpins a snapshot obtained from AcquireSnapshot and clears its
// graph, so the view reads nothing more and a second Release is a no-op;
// Version still reports the version it read at.
func (m *Manager) Release(s *storage.VersionView) {
	if s == nil || s.Graph == nil {
		return
	}
	m.unpin(s.Version())
	s.Graph = nil
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
