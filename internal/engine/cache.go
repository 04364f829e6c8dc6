// Package engine is the serving tier above the distributed executor:
// sessions, prepared statements, an LRU plan cache keyed on normalized
// SQL and the catalog-stats epoch, shared scans for concurrent
// continuous queries, and admission control with typed load-shedding.
// internal/pier stays pure distributed execution; this layer owns the
// query lifecycle the way a "DB as a Service" front door does.
package engine

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/plan"
	"repro/internal/sqlparser"
)

// cacheKey renders the plan-cache key: the statement's canonical token
// spelling plus every compilation option that changes the plan.
func cacheKey(normalizedSQL string, opts plan.Options) string {
	strat := -1
	if opts.Strategy != nil {
		strat = int(*opts.Strategy)
	}
	return fmt.Sprintf("%s|strat=%d|analyze=%t", normalizedSQL, strat, opts.Analyze)
}

// normalizedKey normalizes sql and renders its cache key.
func normalizedKey(sql string, opts plan.Options) (string, error) {
	norm, err := sqlparser.Normalize(sql)
	if err != nil {
		return "", err
	}
	return cacheKey(norm, opts), nil
}

// CacheStats are the plan cache's cumulative counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64 // capacity evictions (LRU tail)
	Invalidations uint64 // entries dropped on a stats-epoch change
	Entries       int
}

// HitRate is hits / (hits + misses), 0 when empty.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheEntryInfo describes one live cache entry (the \cache listing).
type CacheEntryInfo struct {
	Key   string // normalized SQL + options
	Epoch uint64 // catalog-stats epoch the plan was compiled under
	Hits  uint64
	Bytes int // encoded plan size
}

type cacheEntry struct {
	key   string
	spec  []byte // encoded plan.Spec — decoded per hit, so entries are immutable
	epoch uint64
	hits  uint64
}

// PlanCache is an LRU cache of compiled plans. Entries store the
// encoded spec and decode on every hit: a hit is byte-identical to a
// fresh parse+optimize by construction, and no caller can mutate a
// cached plan. An entry compiled under an older catalog-stats epoch is
// invalid — ANALYZE installing fresh statistics (or any table
// definition change) bumps the epoch, so stale plans die on their
// next lookup rather than lingering until eviction.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	stats   CacheStats
	// compiling holds one channel per key whose plan is being compiled
	// by Resolve, closed when that compile ends.
	compiling map[string]chan struct{}
}

// DefaultPlanCacheSize bounds the cache when the config leaves it 0.
const DefaultPlanCacheSize = 128

// NewPlanCache creates a cache holding up to capacity plans
// (<= 0 takes DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		cap:       capacity,
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		compiling: make(map[string]chan struct{}),
	}
}

// Resolve returns key's plan, from the cache (hit true) if it was
// compiled under the given (current) catalog-stats epoch — an epoch
// mismatch drops the entry and counts an invalidation — or from
// compile, whose result it stores. Concurrent misses of one key are
// single-flighted: the first caller compiles, the rest wait for it and
// then hit, so a herd of sessions sending one new statement costs one
// compile and one miss. A compile that fails, or returns a nil plan
// (a statement that is not cached), stores nothing, and the next
// waiter compiles for itself.
func (c *PlanCache) Resolve(key string, epoch uint64, compile func() (*plan.Spec, error)) (spec *plan.Spec, hit bool, err error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*cacheEntry)
			if e.epoch == epoch {
				e.hits++
				c.stats.Hits++
				c.lru.MoveToFront(el)
				encoded := e.spec
				c.mu.Unlock()
				spec, err = plan.FromBytes(encoded) // fails only if the codec breaks
				return spec, true, err
			}
			c.lru.Remove(el)
			delete(c.entries, key)
			c.stats.Invalidations++
		}
		first := c.compiling[key]
		if first == nil {
			break
		}
		c.mu.Unlock()
		<-first
		c.mu.Lock()
	}
	c.stats.Misses++
	done := make(chan struct{})
	c.compiling[key] = done
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.compiling, key)
		c.mu.Unlock()
		close(done)
	}()
	spec, err = compile()
	if err == nil && spec != nil {
		c.put(key, spec, epoch)
	}
	return spec, false, err
}

// put stores a freshly compiled plan under key for the given epoch,
// evicting the LRU tail at capacity.
func (c *PlanCache) put(key string, spec *plan.Spec, epoch uint64) {
	encoded := spec.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.spec = encoded
		e.epoch = epoch
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, spec: encoded, epoch: epoch})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Snapshot lists the live entries in most-recently-used order.
func (c *PlanCache) Snapshot() []CacheEntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntryInfo, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, CacheEntryInfo{Key: e.key, Epoch: e.epoch, Hits: e.hits, Bytes: len(e.spec)})
	}
	return out
}
