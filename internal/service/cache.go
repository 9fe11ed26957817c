package service

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/core"
)

// planCache memoizes GraphPi's expensive preprocessing — restriction-set
// generation, 2-phase schedule generation and performance prediction — per
// (graph fingerprint, canonical pattern form). The paper amortizes that cost
// across one long batch run; a resident service amortizes it across queries:
// a repeat query skips the search entirely and goes straight to execution,
// so its planning latency is a map lookup.
//
// Keys use the pattern's canonical form (the lexicographically-least
// relabeling, computed via internal/perm), so isomorphic patterns written
// differently — "house" by name versus its adjacency matrix with the
// vertices shuffled — share one entry, planned for whichever spelling
// missed first; enumeration maps that spelling's embeddings back to the
// request's (runEnumerate). The graph component is the cluster
// handshake fingerprint, so an entry can never be replayed against a
// different resident graph.
//
// Entries are LRU-evicted under a fixed byte budget, planCacheBytes
// (coarse per-entry estimate; compiled configurations are small, so the
// budget is really a count bound that scales with pattern size).
// Concurrent requests for the same missing key coalesce onto one planning
// run: the first caller builds while the rest wait on the entry — the
// cache-stampede guard, asserted by test.
type planCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *cacheEntry
	byKey  map[planKey]*cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// plans counts actual planning runs — the observable the stampede and
	// hit-latency tests assert on (hits and coalesced waiters don't bump it).
	plans atomic.Int64
}

// planKey identifies one cached plan. The graph is identified by its
// resident name AND its fingerprint: the name separates distinct graphs
// whose structural fingerprints collide (two unnamed snapshots with equal
// |V| and |E| would otherwise share schedules planned from the wrong
// degree statistics), while the fingerprint keeps a name honest should
// registration ever allow replacing a graph under an existing name.
type planKey struct {
	graphName string // resident registration name
	graphFP   string // cluster.FingerprintKey of the resident graph
	patternCK string // pattern.CanonicalKey: equal across isomorphic forms
}

type cacheEntry struct {
	key   planKey
	elem  *list.Element
	bytes int64

	// ready is closed once cfg/prep/err are final; waiters coalescing on an
	// in-flight build block on it.
	ready chan struct{}
	cfg   *core.Config
	prep  time.Duration
	err   error
}

func newPlanCache(budgetBytes int64) *planCache {
	return &planCache{
		budget: budgetBytes,
		lru:    list.New(),
		byKey:  map[planKey]*cacheEntry{},
	}
}

// planCacheBytes is the service's plan-cache budget: thousands of
// house-sized entries.
const planCacheBytes = 8 << 20

// get returns the cached configuration for key, building it with build on a
// miss. hit reports whether a planning run was avoided (a waiter coalescing
// onto someone else's in-flight build counts as a hit: it paid no planning).
func (c *planCache) get(key planKey, build func() (*core.Config, time.Duration, error)) (cfg *core.Config, prep time.Duration, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// Failed builds are removed at completion; this waiter just
			// reports the same failure.
			return nil, 0, false, e.err
		}
		c.hits.Add(1)
		return e.cfg, e.prep, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.byKey[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	c.plans.Add(1)
	// A panicking planner must not leave the in-flight entry open forever —
	// waiters coalescing on it would block while holding admission slots,
	// wedging the service. Settle the entry (as a removed failure) before
	// the panic propagates.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.mu.Lock()
		e.err = errPlanPanic
		c.removeLocked(e)
		close(e.ready)
		c.mu.Unlock()
	}()
	cfg, prep, err = build()
	settled = true

	c.mu.Lock()
	e.cfg, e.prep, e.err = cfg, prep, err
	if err != nil {
		c.removeLocked(e)
	} else {
		e.bytes = entryBytes(cfg)
		c.used += e.bytes
		c.evictLocked()
	}
	close(e.ready)
	c.mu.Unlock()
	return cfg, prep, false, err
}

// errPlanPanic is what coalesced waiters observe when the building caller's
// planner panicked out from under them.
var errPlanPanic = errors.New("service: planning panicked")

// evictLocked drops least-recently-used completed entries until the budget
// holds. In-flight entries (bytes 0, someone is planning) are skipped: they
// are about to be used, and their waiters hold references anyway.
func (c *planCache) evictLocked() {
	for c.used > c.budget {
		victim := (*cacheEntry)(nil)
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.bytes > 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.evictions.Add(1)
	}
}

func (c *planCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.byKey, e.key)
	c.used -= e.bytes
}

// entryBytes coarsely estimates a compiled configuration's footprint: the
// schedule/restriction slices are tiny, so a fixed overhead plus small
// per-vertex terms keeps eviction order sane without chasing exact sizes.
// The one large part is the order table planning memoised on the pattern
// (n² masks of n! bits, up to 8 vertices), which the entry keeps alive.
func entryBytes(cfg *core.Config) int64 {
	n := int64(cfg.N())
	b := 1024 + 64*n*n + 32*int64(len(cfg.Restrictions))
	if t := cfg.Pattern.OrderTable(); t != nil {
		b += t.Bytes()
	}
	return b
}

// cacheStats is the metrics snapshot.
type cacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Plans     int64 `json:"planning_runs"`
}

func (c *planCache) stats() cacheStats {
	c.mu.Lock()
	entries, used := c.lru.Len(), c.used
	c.mu.Unlock()
	return cacheStats{
		Entries:   entries,
		Bytes:     used,
		Budget:    c.budget,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Plans:     c.plans.Load(),
	}
}
