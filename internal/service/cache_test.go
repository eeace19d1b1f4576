package service

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

func res(rounds int) *sim.RunResult { return &sim.RunResult{Rounds: rounds} }

// TestCacheEvictionOrder exercises the LRU discipline under capacity
// pressure: the least recently *used* entry goes first, and both get and
// re-add refresh recency.
func TestCacheEvictionOrder(t *testing.T) {
	c := newResultCache(3)
	c.add("a", res(1), nil)
	c.add("b", res(2), nil)
	c.add("c", res(3), nil)

	// Touch a: recency order becomes a, c, b.
	if _, ok := c.get("a"); !ok {
		t.Fatalf("a missing before any eviction")
	}
	// Insert d: b (least recently used) must go.
	c.add("d", res(4), nil)
	if _, ok := c.get("b"); ok {
		t.Errorf("b survived although it was least recently used")
	}
	if got, want := c.keysMRU(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("recency order after first eviction: got %v, want %v", got, want)
	}

	// Re-add c (refresh, no growth), then insert two more: evictions must
	// follow recency (a, then d), never the refreshed c.
	c.add("c", res(33), nil)
	c.add("e", res(5), nil)
	c.add("f", res(6), nil)
	if got, want := c.keysMRU(), []string{"f", "e", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("recency order after pressure: got %v, want %v", got, want)
	}
	if e, ok := c.get("c"); !ok || e.res.Rounds != 33 {
		t.Errorf("refreshed entry lost its new value: %+v ok=%v", e, ok)
	}
	if c.len() != 3 {
		t.Errorf("cache grew past capacity: %d entries", c.len())
	}
}

// TestSingleflightCollapsesConcurrentSubmissions proves N concurrent
// identical submissions compile and run once: the executions counter stays
// at 1, every caller gets the same result, and all but the leader report
// cached (hit or coalesced).
func TestSingleflightCollapsesConcurrentSubmissions(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()

	var executions atomic.Int64
	release := make(chan struct{})
	real := svc.execute
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		executions.Add(1)
		<-release // hold the leader so every other caller piles up behind it
		return real(sp)
	}
	sp := spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: "ring", N: 8},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 4, Algorithm: spec.Known()},
		},
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*sim.RunResult, callers)
	cachedFlags := make([]bool, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, r, cached, err := svc.RunSpec(sp)
			results[i], cachedFlags[i], errs[i] = r, cached, err
		}(i)
	}
	// Release the leader only after every caller has entered RunSpec (the
	// run-requests counter ticks at entry) and had ample time to reach the
	// flight group, so no caller can arrive after the leader finished and
	// trigger a second execution.
	for deadline := time.Now().Add(5 * time.Second); svc.runRequests.Value() < callers; {
		if time.Now().After(deadline) {
			t.Fatalf("callers never arrived: %d of %d", svc.runRequests.Value(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d concurrent identical submissions ran the engine %d times, want 1", callers, got)
	}
	uncachedCount := 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("caller %d got a different result object", i)
		}
		if !cachedFlags[i] {
			uncachedCount++
		}
	}
	if uncachedCount != 1 {
		t.Errorf("%d callers reported an uncached (fresh) run, want exactly the leader", uncachedCount)
	}
	m := svc.Snapshot()
	if m.CacheMisses != 1 || m.CacheHits+m.Coalesced != callers-1 {
		t.Errorf("metrics: misses=%d hits=%d coalesced=%d, want 1 miss and %d shared", m.CacheMisses, m.CacheHits, m.Coalesced, callers-1)
	}

	// A later submission of the same spec is a plain cache hit.
	_, r, cached, err := svc.RunSpec(sp)
	if err != nil || !cached || r != results[0] {
		t.Errorf("resubmission: cached=%v err=%v sameResult=%v, want hit", cached, err, r == results[0])
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("resubmission re-ran the engine (executions=%d)", got)
	}
}

// TestCacheCapacityOneStillServes pins the degenerate capacity.
func TestCacheCapacityOneStillServes(t *testing.T) {
	c := newResultCache(0) // clamps to 1
	c.add("a", res(1), nil)
	c.add("b", res(2), nil)
	if _, ok := c.get("a"); ok {
		t.Errorf("capacity-1 cache kept two entries")
	}
	if e, ok := c.get("b"); !ok || e.res.Rounds != 2 {
		t.Errorf("latest entry missing")
	}
}
