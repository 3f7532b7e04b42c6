package cypher

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// PlanCacheSize bounds every plan cache: it keeps the compiled skeletons of
// the most recently used normalized queries.
const PlanCacheSize = 128

// Prepared is a query ready to run: the compiled plan with the request's
// values bound into its $k slots, the binder's estimate, those values, and
// whether the skeleton came from the cache. exec.Physical turns its plan
// into the plan an engine runs or prints.
type Prepared struct {
	Compiled
	Params []vector.Value
	Hit    bool
}

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

// Cache prepares Cypher text against one graph. It is the one way every
// frontend (the service's /query, the embedded ges.DB, the gesh shell)
// turns text into a plan, through a bounded LRU of compiled (unfused) plan
// skeletons that lets repeated queries skip the lex/parse/bind pipeline.
// Cached plans are shared across concurrent callers: operators hold no
// per-execution state, Prepare binds a request's parameters into a copy
// (plan.BindParams), and the fusion rewrite runs per execution on a copy
// (exec.Physical).
type Cache struct {
	g     *storage.Graph
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[planKey]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	key planKey
	c   Compiled
}

// NewCache returns a plan cache of PlanCacheSize entries over g.
func NewCache(g *storage.Graph) *Cache { return newCache(g, PlanCacheSize) }

func newCache(g *storage.Graph, capacity int) *Cache {
	return &Cache{
		g:     g,
		cap:   capacity,
		order: list.New(),
		byKey: make(map[planKey]*list.Element, capacity),
	}
}

// Prepare normalizes src (its literals become $k slots), looks the skeleton
// up under the graph's current catalog version and statistics epoch, and on
// a miss compiles it from the statistics snapshot that epoch names — as
// written (a nil cost model) before the graph's first seal publishes one.
// The returned plan has src's literals bound back into the slots.
func (c *Cache) Prepare(src string) (Prepared, error) {
	norm, params, err := Normalize(src)
	if err != nil {
		return Prepared{}, err
	}
	cat := c.g.Catalog()
	st := c.g.Stats()
	key := planKey{query: norm, catalog: cat.Version(), kinds: paramKinds(params)}
	if st != nil {
		key.stats = st.Epoch
	}
	if comp, ok := c.get(key); ok {
		return bound(comp, params, true), nil
	}
	comp, err := CompileWith(norm, cat, Options{Cost: plan.NewCostModel(st), Params: params})
	if err != nil {
		return Prepared{}, err
	}
	c.put(key, *comp)
	return bound(*comp, params, false), nil
}

// bound returns the skeleton comp prepared with params in its slots.
func bound(comp Compiled, params []vector.Value, hit bool) Prepared {
	comp.Plan = plan.BindParams(comp.Plan, params)
	return Prepared{Compiled: comp, Params: params, Hit: hit}
}

// paramKinds fingerprints the extracted literal kinds so a query whose
// literals re-lex to different types cannot reuse a plan skeleton shaped
// for other kinds (e.g. an id() seek compiled against an integer).
func paramKinds(params []vector.Value) string {
	if len(params) == 0 {
		return ""
	}
	b := make([]byte, len(params))
	for i, p := range params {
		b[i] = byte('0' + int(p.Kind))
	}
	return string(b)
}

// get returns the cached plan skeleton and its estimate for key, promoting
// the entry to most recently used.
func (c *Cache) get(key planKey) (Compiled, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return Compiled{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*planEntry).c, true
}

// put inserts (or refreshes) a compiled plan, evicting the least recently
// used entry when over capacity.
func (c *Cache) put(key planKey, comp Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).c = comp
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&planEntry{key: key, c: comp})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*planEntry).key)
	}
}

// Stats returns the lifetime hit and miss counts, the current entry count
// and the bound.
func (c *Cache) Stats() (hits, misses uint64, size, capacity int) {
	c.mu.Lock()
	size = c.order.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), size, c.cap
}
