package storage

import (
	"sync/atomic"

	"ges/internal/vector"
)

// VIDMap is a lock-free map from VID to *T, for the per-vertex state a reader
// probes on every row — a delta's insert runs. It is an open-addressing table
// of entries published behind one atomic pointer: a Load takes no lock and
// allocates nothing, and it sees every Store published before it. An entry is installed
// once per key and its value swapped in place, and a table half full is
// replaced by one twice its size holding the same entries, so memory follows
// the keys present (some 40 bytes each), not the VID range they span. Stores
// (and Range) must be serialized by the caller.
type VIDMap[T any] struct {
	tab atomic.Pointer[vidTable[T]]
}

type vidTable[T any] struct {
	slots []atomic.Pointer[vidEntry[T]] // a power of two of them
	shift uint32                        // 32 - log2(len(slots))
	n     int                           // entries installed; written only by the serialized stores
}

type vidEntry[T any] struct {
	v vector.VID
	p atomic.Pointer[T]
}

// home is v's first probe position (Fibonacci hashing).
func (t *vidTable[T]) home(v vector.VID) uint32 { return uint32(v) * 0x9E3779B1 >> t.shift }

func (t *vidTable[T]) find(v vector.VID) *vidEntry[T] {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil || e.v == v {
			return e
		}
	}
}

func (t *vidTable[T]) insert(e *vidEntry[T]) {
	mask := uint32(len(t.slots) - 1)
	i := t.home(e.v)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}

// Load returns v's value, or nil.
func (m *VIDMap[T]) Load(v vector.VID) *T {
	if t := m.tab.Load(); t != nil {
		if e := t.find(v); e != nil {
			return e.p.Load()
		}
	}
	return nil
}

// Store publishes p as v's value; nil clears it.
func (m *VIDMap[T]) Store(v vector.VID, p *T) {
	t := m.tab.Load()
	if t != nil {
		if e := t.find(v); e != nil {
			e.p.Store(p)
			return
		}
	}
	if p == nil {
		return
	}
	if t == nil || 2*(t.n+1) > len(t.slots) {
		t = m.grown(t)
	}
	e := &vidEntry[T]{v: v}
	e.p.Store(p)
	t.insert(e)
	t.n++
}

// grown publishes a table twice the size of t (16 slots for none) holding
// t's entries, and returns it.
func (m *VIDMap[T]) grown(t *vidTable[T]) *vidTable[T] {
	size, shift := 16, uint32(28)
	if t != nil {
		size, shift = 2*len(t.slots), t.shift-1
	}
	next := &vidTable[T]{slots: make([]atomic.Pointer[vidEntry[T]], size), shift: shift}
	if t != nil {
		next.n = t.n
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				next.insert(e)
			}
		}
	}
	m.tab.Store(next)
	return next
}

// Range calls fn for every key with a value, in no particular order.
func (m *VIDMap[T]) Range(fn func(v vector.VID, p *T)) {
	t := m.tab.Load()
	if t == nil {
		return
	}
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			if p := e.p.Load(); p != nil {
				fn(e.v, p)
			}
		}
	}
}
