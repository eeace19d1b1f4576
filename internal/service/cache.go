package service

import (
	"container/list"
	"sync"

	"nochatter/internal/sim"
)

// resultCache is a bounded LRU of run outcomes keyed by spec hash: a
// result on success, the error on a deterministic failure. Cached results
// are shared between all readers and must be treated as read-only; the
// service only ever serializes them.
//
// Failures are memoized too: a spec that failed to compile or run will
// fail identically on resubmission (the registries are stable for a
// daemon's lifetime), so the failure is served from cache rather than
// re-simulated — otherwise one known-bad, max-rounds-exhausting spec could
// busy-loop the engine via sequential resubmission.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is one run outcome: res on success, err on failure.
type cacheEntry struct {
	key string
	res *sim.RunResult
	err error
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached outcome for key, refreshing its recency.
func (c *resultCache) get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// add inserts (or refreshes) key's outcome, evicting the least recently
// used entry when over capacity.
func (c *resultCache) add(key string, res *sim.RunResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		*el.Value.(*cacheEntry) = cacheEntry{key, res, err}
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key, res, err})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keysMRU returns the cached keys from most to least recently used (test
// and metrics introspection).
func (c *resultCache) keysMRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

// flightGroup collapses concurrent executions of the same key into one: the
// first caller runs fn, every caller that arrives before it finishes blocks
// and shares the outcome. This is what keeps N simultaneous submissions of
// one spec from compiling and running N times.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *sim.RunResult
	err  error
}

// do runs fn under key, deduplicating concurrent calls. shared reports
// whether this caller joined another caller's execution instead of running
// fn itself.
func (g *flightGroup) do(key string, fn func() (*sim.RunResult, error)) (res *sim.RunResult, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.res, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, c.err, false
}
