package hist

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestDistObserve checks count/sum/min/max bookkeeping and clamping.
func TestDistObserve(t *testing.T) {
	var d Dist
	for _, v := range []int64{5, 1, 9, 0, 9, -3} {
		d.Observe(v)
	}
	if d.Count != 6 || d.Sum != 24 || d.Min != 0 || d.Max != 9 {
		t.Fatalf("got count=%d sum=%d min=%d max=%d", d.Count, d.Sum, d.Min, d.Max)
	}
}

// TestDistMergeLaws proves the reducer laws the whole package rests on:
// merging is associative and commutative, the empty Dist is the identity,
// and any split of an observation sequence across sub-reducers merges to
// the same state as folding it sequentially.
func TestDistMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	values := make([]int64, 500)
	for i := range values {
		values[i] = rng.Int63n(1 << uint(rng.Intn(40)))
	}

	fold := func(vs []int64) Dist {
		var d Dist
		for _, v := range vs {
			d.Observe(v)
		}
		return d
	}
	whole := fold(values)

	// Any split point merges back to the sequential fold.
	for _, cut := range []int{0, 1, 250, 499, 500} {
		a, b := fold(values[:cut]), fold(values[cut:])
		a.Merge(b)
		if !reflect.DeepEqual(a, whole) {
			t.Fatalf("split at %d: merge differs from sequential fold", cut)
		}
	}
	// Commutativity.
	a, b := fold(values[:200]), fold(values[200:])
	ab, ba := a, b
	ab.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("merge is not commutative")
	}
	// Associativity.
	x, y, z := fold(values[:100]), fold(values[100:300]), fold(values[300:])
	left := x
	left.Merge(y)
	left.Merge(z)
	yz := y
	yz.Merge(z)
	right := x
	right.Merge(yz)
	if !reflect.DeepEqual(left, right) {
		t.Fatal("merge is not associative")
	}
	// Identity.
	id := whole
	id.Merge(Dist{})
	if !reflect.DeepEqual(id, whole) {
		t.Fatal("empty Dist is not a merge identity")
	}
}

// TestDistQuantile checks quantile estimates stay within the observed range,
// are monotone in q, and are exact for single-value buckets.
func TestDistQuantile(t *testing.T) {
	var d Dist
	if d.Quantile(0.5) != 0 {
		t.Fatal("empty Dist quantile should be 0")
	}
	for i := int64(0); i < 100; i++ {
		d.Observe(i)
	}
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		est := d.Quantile(q)
		if est < 0 || est > 99 {
			t.Fatalf("q=%v: estimate %v outside observed range [0,99]", q, est)
		}
		if est < prev {
			t.Fatalf("q=%v: estimate %v below previous %v (not monotone)", q, est, prev)
		}
		prev = est
	}
	// A distribution of one repeated value is exact at every quantile.
	var one Dist
	for i := 0; i < 10; i++ {
		one.Observe(7)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("q=%v of constant 7: got %v", q, got)
		}
	}
}

// TestDistJSONRoundTrip proves a Dist survives the wire: decode(encode(d))
// re-encodes to identical bytes, so served summaries are stable artifacts.
func TestDistJSONRoundTrip(t *testing.T) {
	var d Dist
	for _, v := range []int64{0, 1, 2, 3, 100, 1 << 30} {
		d.Observe(v)
	}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dist
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	buf2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatalf("round trip changed encoding:\n%s\n%s", buf, buf2)
	}
}

// TestDistUnmarshalRejectsCorrupt proves corrupt wire documents fail
// loudly instead of silently producing wrong quantiles.
func TestDistUnmarshalRejectsCorrupt(t *testing.T) {
	var d Dist
	if err := json.Unmarshal([]byte(`{"count":3,"sum":3,"min":1,"max":1,"buckets":[0,2]}`), &d); err == nil {
		t.Fatal("bucket total 2 vs count 3 must be rejected")
	}
	// Bucket totals that wrap around int64 to equal count: merged with one
	// observation, the first leaves a bucket of MinInt64, whose encoding
	// the decoder then rejects.
	for _, doc := range []string{
		`{"count":5,"sum":10,"min":1,"max":3,"buckets":[0,9223372036854775807,9223372036854775807,7]}`,
		`{"count":0,"sum":0,"min":0,"max":0,"buckets":[9223372036854775807,9223372036854775807,2]}`,
	} {
		if err := json.Unmarshal([]byte(doc), &d); err == nil {
			t.Fatalf("bucket total wrapping around int64 must be rejected: %s", doc)
		}
	}
	long := `{"count":0,"sum":0,"min":0,"max":0,"buckets":[`
	for i := 0; i < 65; i++ {
		if i > 0 {
			long += ","
		}
		long += "0"
	}
	long += `]}`
	if err := json.Unmarshal([]byte(long), &d); err == nil {
		t.Fatal("more than 64 buckets must be rejected")
	}
}

// TestBucket63NoOverflow is the regression test for the top histogram
// bucket: bucket 63 covers [2^62, 2^63), and its upper bound used to be
// computed as int64(1)<<63 — which is negative, so hi underflowed lo and
// every quantile of a distribution with observations ≥ 2^62 collapsed to
// the bucket's lower bound.
func TestBucket63NoOverflow(t *testing.T) {
	var d Dist
	d.Observe(0)
	for i := 0; i < 99; i++ {
		d.Observe(math.MaxInt64)
	}
	if d.Max != math.MaxInt64 {
		t.Fatalf("max = %d, want MaxInt64", d.Max)
	}
	lo, hi := d.bucketBounds(63)
	if hi < lo {
		t.Fatalf("bucket 63 bounds inverted: lo=%v hi=%v", lo, hi)
	}
	if want := float64(uint64(1) << 62); lo != want {
		t.Fatalf("bucket 63 lo = %v, want %v", lo, want)
	}
	if want := float64(math.MaxInt64); hi != want {
		t.Fatalf("bucket 63 hi = %v, want %v (clamped to Max)", hi, want)
	}
	// 99 of 100 observations sit at MaxInt64, so p99 must interpolate well
	// into the top half of the bucket — the old negative-hi code returned
	// lo = 2^62 ≈ 0.5·MaxInt64 instead.
	if got, min := d.Quantile(0.99), 0.9*float64(math.MaxInt64); got < min {
		t.Fatalf("p99 = %v, want at least %v", got, min)
	}
	// Quantiles stay within the observed range even at the extremes.
	for _, q := range []float64{0, 0.5, 1} {
		if got := d.Quantile(q); got < 0 || got > float64(math.MaxInt64) {
			t.Fatalf("q=%v: estimate %v outside [0, MaxInt64]", q, got)
		}
	}
}

// TestSumSaturates proves Sum cannot wrap negative — the state
// UnmarshalJSON's negative-sum rejection assumes: observing (or merging)
// values whose true sum exceeds MaxInt64 saturates there, the merge laws
// still hold across splits, and the saturated Dist survives the wire.
func TestSumSaturates(t *testing.T) {
	var d Dist
	d.Observe(math.MaxInt64)
	d.Observe(math.MaxInt64)
	if d.Sum != math.MaxInt64 {
		t.Fatalf("sum = %d after two MaxInt64 observations, want saturation at MaxInt64", d.Sum)
	}
	var a, b Dist
	a.Observe(math.MaxInt64)
	b.Observe(math.MaxInt64)
	a.Merge(b)
	if !reflect.DeepEqual(a, d) {
		t.Fatal("saturated merge differs from the sequential fold")
	}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dist
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("saturated Dist does not round-trip: %v", err)
	}
}

// TestDistUnmarshalRejectsNegativeState proves a corrupt cached summary
// with negative count, sum or bucket values fails loudly instead of
// producing negative quantile ranks.
func TestDistUnmarshalRejectsNegativeState(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"count", `{"count":-1,"sum":0,"min":0,"max":0}`},
		{"sum", `{"count":1,"sum":-5,"min":0,"max":0,"buckets":[1]}`},
		{"bucket", `{"count":1,"sum":0,"min":0,"max":0,"buckets":[2,-1]}`},
		{"min", `{"count":1,"sum":5,"min":-3,"max":9,"buckets":[0,0,0,1]}`},
		{"inverted range", `{"count":1,"sum":5,"min":9,"max":3,"buckets":[0,0,0,1]}`},
	} {
		var d Dist
		if err := json.Unmarshal([]byte(tc.doc), &d); err == nil {
			t.Errorf("negative %s must be rejected", tc.name)
		}
	}
}

// TestQuantileAgainstSorted sanity-checks the histogram estimate against
// the true empirical quantile: for log-bucketed data the estimate must land
// within the bucket of the true value (factor-2 relative error at worst).
func TestQuantileAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]int64, 1000)
	var d Dist
	for i := range values {
		values[i] = rng.Int63n(100000)
		d.Observe(values[i])
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := float64(values[int(q*float64(len(values)-1))])
		est := d.Quantile(q)
		if est < truth/2-1 || est > truth*2+1 {
			t.Fatalf("q=%v: estimate %v not within a bucket of true %v", q, est, truth)
		}
	}
}
