package core

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// PlanCache memoises GraphPi's expensive preprocessing — restriction-set
// generation, 2-phase schedule generation and performance prediction (Plan),
// then the orientation step (Config.Orient) — per key. The paper amortises
// that cost across one long batch run; a memo amortises it across every later
// plan of the same pattern on the same graph, whose planning is then a map
// lookup.
//
// The caller composes the key, and the key must pin the data graph (its
// statistics pick the plan, its candidate counts the orientation) and the
// pattern up to the spelling the caller needs back: the configuration
// searches for the pattern of whichever request missed first. The query
// service keys by resident graph name, fingerprint and canonical pattern
// form, so isomorphic spellings share an entry; the facade's Graph holds one
// memo keyed by the pattern's own spelling.
//
// Entries are LRU-evicted under a fixed byte budget, planCacheBytes (coarse
// per-entry estimate; compiled configurations are small, so the budget is
// really a count bound that scales with pattern size). Concurrent requests
// for the same missing key coalesce onto one planning run: the first caller
// builds while the rest wait on the entry — the cache-stampede guard. The
// zero value is ready to use.
type PlanCache[K comparable] struct {
	mu     sync.Mutex
	budget int64               // 0 means planCacheBytes; tests shrink it
	used   int64               // guarded by mu
	lru    list.List           // guarded by mu; front = most recent, values are *planEntry[K]
	byKey  map[K]*planEntry[K] // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// plans counts actual planning runs — the observable the stampede and
	// hit-latency tests assert on (hits and coalesced waiters don't bump it).
	plans atomic.Int64
}

// planCacheBytes is every plan memo's budget: thousands of house-sized
// entries.
const planCacheBytes = 8 << 20

type planEntry[K comparable] struct {
	key   K
	elem  *list.Element
	bytes int64

	// ready is closed once cfg/o/err are final; waiters coalescing on an
	// in-flight build block on it.
	ready chan struct{}
	cfg   *Config
	o     Orientation
	err   error
}

// ErrPlanAbandoned is what Get returns to a caller whose done channel closed
// while it waited for another caller's planning run.
var ErrPlanAbandoned = errors.New("core: wait for an in-flight plan abandoned")

// errPlanPanic is what coalesced waiters observe when the building caller's
// planner panicked out from under them.
var errPlanPanic = errors.New("core: planning panicked")

// Get returns the configuration memoised under key with its orientation
// decision. On a miss it plans p on g's statistics and orients the best
// configuration on g with workers goroutines. hit reports that this call ran
// no planner: a caller that waited for another's in-flight run counts as a
// hit. A waiter returns ErrPlanAbandoned as soon as done closes (a nil done
// never does); the caller that plans runs to the end.
func (c *PlanCache[K]) Get(done <-chan struct{}, key K, p *pattern.Pattern, g *graph.Graph, workers int) (cfg *Config, o Orientation, hit bool, err error) {
	return c.get(done, key, func() (*Config, Orientation, error) {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			return nil, Orientation{}, err
		}
		return res.Best.Orient(g, workers)
	})
}

// get is Get with the planning run supplied by the caller.
func (c *PlanCache[K]) get(done <-chan struct{}, key K, build func() (*Config, Orientation, error)) (*Config, Orientation, bool, error) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.ready:
		default:
			select {
			case <-e.ready:
			case <-done:
				return nil, Orientation{}, false, ErrPlanAbandoned
			}
		}
		if e.err != nil {
			// Failed builds are removed at completion; this waiter just
			// reports the same failure.
			return nil, Orientation{}, false, e.err
		}
		c.hits.Add(1)
		return e.cfg, e.o, true, nil
	}
	e := &planEntry[K]{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	if c.byKey == nil {
		c.byKey = make(map[K]*planEntry[K])
	}
	c.byKey[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	c.plans.Add(1)
	// A panicking planner must not leave the in-flight entry open forever —
	// waiters coalescing on it would block, in the service while holding
	// admission slots. Settle the entry (as a removed failure) before the
	// panic propagates.
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
	cfg, o, err := build()
	settled = true

	c.mu.Lock()
	e.cfg, e.o, e.err = cfg, o, err
	if err != nil {
		c.removeLocked(e)
	} else {
		e.bytes = entryBytes(cfg)
		c.used += e.bytes
		c.evictLocked()
	}
	close(e.ready)
	c.mu.Unlock()
	return cfg, o, false, err
}

func (c *PlanCache[K]) limit() int64 {
	if c.budget > 0 {
		return c.budget
	}
	return planCacheBytes
}

// evictLocked drops least-recently-used completed entries until the budget
// holds. In-flight entries (bytes 0, someone is planning) are skipped: they
// are about to be used, and their waiters hold references anyway.
func (c *PlanCache[K]) evictLocked() {
	for c.used > c.limit() {
		var victim *planEntry[K]
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*planEntry[K]); e.bytes > 0 {
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

func (c *PlanCache[K]) removeLocked(e *planEntry[K]) {
	c.lru.Remove(e.elem)
	delete(c.byKey, e.key)
	c.used -= e.bytes
}

// entryBytes coarsely estimates a compiled configuration's footprint: the
// schedule/restriction slices are tiny, so a fixed overhead plus small
// per-vertex terms keeps eviction order sane without chasing exact sizes.
// The one large part is the order table planning memoised on the pattern
// (n² masks of n! bits, up to 8 vertices), which the entry keeps alive.
func entryBytes(cfg *Config) int64 {
	n := int64(cfg.N())
	b := 1024 + 64*n*n + 32*int64(len(cfg.Restrictions))
	if t := cfg.Pattern.OrderTable(); t != nil {
		b += t.Bytes()
	}
	return b
}

// PlanCacheStats is a snapshot of a PlanCache's size and counters.
type PlanCacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Plans     int64 `json:"planning_runs"`
}

// Stats snapshots the memo's size and counters.
func (c *PlanCache[K]) Stats() PlanCacheStats {
	c.mu.Lock()
	entries, used := c.lru.Len(), c.used
	c.mu.Unlock()
	return PlanCacheStats{
		Entries:   entries,
		Bytes:     used,
		Budget:    c.limit(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Plans:     c.plans.Load(),
	}
}
