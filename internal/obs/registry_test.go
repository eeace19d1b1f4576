package obs

import (
	"encoding/json"
	"math/rand/v2"
	"sync"
	"testing"

	"nochatter/internal/hist"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Fatalf("Counter(hits) did not return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	nilC.Inc() // nil metrics must no-op, not panic
	nilG.Set(1)
	nilH.Observe(1)
	if nilC.Value() != 0 || nilG.Value() != 0 || nilH.Snapshot().Count != 0 {
		t.Fatalf("nil metrics should read zero")
	}
}

func TestRegistryCrossKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering %q as gauge after counter should panic", "x")
		}
	}()
	r.Gauge("x")
}

func TestRegistrySnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(3)
	r.Gauge("depth").Set(2)
	r.GaugeFunc("rate", func() float64 { return 0.5 })
	r.Histogram("lat_us").Observe(100)
	r.Object("sched", func() any { return map[string]int{"chunks": 4} })
	r.Object("absent", func() any { return nil })

	snap := r.Snapshot()
	if snap["requests"] != int64(3) || snap["depth"] != int64(2) || snap["rate"] != 0.5 {
		t.Fatalf("snapshot scalars wrong: %#v", snap)
	}
	if _, ok := snap["absent"]; ok {
		t.Fatalf("nil object should be omitted from the snapshot")
	}
	hs, ok := snap["lat_us"].(hist.Dist)
	if !ok || hs.Count != 1 || hs.Sum != 100 {
		t.Fatalf("histogram snapshot wrong: %#v", snap["lat_us"])
	}

	// The registry marshals to one flat JSON document with stable keys.
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"requests", "depth", "rate", "lat_us", "sched"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("marshaled snapshot missing %q: %s", key, buf)
		}
	}
}

func TestRegistrySnapshotDoesNotHoldLockAcrossGaugeFuncs(t *testing.T) {
	// A gauge function that re-enters the registry must not deadlock:
	// Snapshot collects handles under the lock and evaluates outside it.
	r := NewRegistry()
	r.Counter("inner").Add(9)
	r.GaugeFunc("derived", func() float64 { return float64(r.Counter("inner").Value()) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := r.Snapshot()["derived"]; got != 9.0 {
			t.Errorf("derived gauge = %v, want 9", got)
		}
	}()
	<-done
}

// TestHistogramMergeLaws checks associativity and commutativity of Merge,
// and that merged state equals folding the concatenated observations.
func TestHistogramMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	obs := func(vals []int64) *Histogram {
		h := &Histogram{}
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	var a, b, c []int64
	for i := 0; i < 300; i++ {
		a = append(a, rng.Int64N(1<<30))
		b = append(b, rng.Int64N(1<<10))
		c = append(c, rng.Int64N(1<<45))
	}
	snap := func(h *Histogram) string {
		buf, err := json.Marshal(h.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(buf)
	}

	// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
	left := obs(a)
	left.Merge(obs(b))
	left.Merge(obs(c))
	rightTail := obs(b)
	rightTail.Merge(obs(c))
	right := obs(a)
	right.Merge(rightTail)
	if snap(left) != snap(right) {
		t.Fatalf("merge is not associative:\n%s\n%s", snap(left), snap(right))
	}

	// a ⊕ b == b ⊕ a
	ab := obs(a)
	ab.Merge(obs(b))
	ba := obs(b)
	ba.Merge(obs(a))
	if snap(ab) != snap(ba) {
		t.Fatalf("merge is not commutative:\n%s\n%s", snap(ab), snap(ba))
	}

	// merged == folded-in-one
	all := obs(append(append(append([]int64(nil), a...), b...), c...))
	if snap(left) != snap(all) {
		t.Fatalf("merge disagrees with direct fold:\n%s\n%s", snap(left), snap(all))
	}

	// identity: merging an empty histogram changes nothing
	id := obs(a)
	id.Merge(&Histogram{})
	if snap(id) != snap(obs(a)) {
		t.Fatalf("empty merge is not the identity")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}
