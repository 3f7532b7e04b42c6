package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ges/internal/plan"
)

// DefaultPlanCacheSize bounds the service plan cache when no explicit size is
// configured.
const DefaultPlanCacheSize = 128

// planKey identifies a cached compiled plan: the normalized query text
// (literals replaced by $k placeholders, so literal-differing requests
// share one entry), the catalog schema version it was bound against, the
// statistics epoch that shaped it, and the parameter-kind fingerprint. A
// schema change or a reseal (which publishes fresh
// cardinalities under a new epoch) makes stale plans stop being hit and
// age out of the LRU; the kind fingerprint keeps a request whose literal
// kinds differ (e.g. a string where the cached plan seeks an integer id)
// from reusing a skeleton shaped for other types.
type planKey struct {
	query   string
	catalog uint64
	stats   uint64
	kinds   string
}

// planCache is a bounded LRU of compiled (unfused) plans, letting repeated
// POST /query requests skip the lex/parse/bind pipeline. Cached plans are
// shared across concurrent requests: operators hold no per-execution state,
// and the fusion rewrite (plan.Fuse) runs per execution on a copy, creating
// fresh fused predicate instances.
type planCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[planKey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	key planKey
	p   plan.Plan
	est plan.Estimate
}

// newPlanCache returns a cache bounded to capacity entries (values < 1 use
// DefaultPlanCacheSize).
func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = DefaultPlanCacheSize
	}
	return &planCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[planKey]*list.Element, capacity),
	}
}

// get returns the cached plan skeleton and its estimate for key, promoting
// the entry to most recently used.
func (c *planCache) get(key planKey) (plan.Plan, plan.Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return nil, plan.Estimate{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*planEntry)
	return e.p, e.est, true
}

// put inserts (or refreshes) a compiled plan, evicting the least recently
// used entry when over capacity.
func (c *planCache) put(key planKey, p plan.Plan, est plan.Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*planEntry)
		e.p, e.est = p, est
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&planEntry{key: key, p: p, est: est})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*planEntry).key)
	}
}

// counters returns the lifetime hit/miss counts.
func (c *planCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// size returns the current entry count.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// capacity returns the configured bound.
func (c *planCache) capacity() int { return c.cap }
