// Package hist is the repository's one streaming distribution type: Dist
// folds non-negative int64 observations into a count, a saturating sum,
// min, max and a fixed-boundary log2 histogram, and estimates quantiles
// from it. internal/agg keeps one Dist per sweep-summary metric;
// internal/obs wraps one in a mutex for its latency histograms.
//
// Bucket i counts values v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i), so histograms of any two runs merge by element-wise
// addition and a quantile is a deterministic interpolation inside one
// bucket. All state is integral, and Observe and Merge commute and
// associate, so any permutation of the same observations, folded by any
// number of independent reducers, gives the same Dist bit for bit. See
// DESIGN.md §9 for the reducer laws and the bucket scheme.
//
// The package imports only the standard library, so every layer can use
// it without an import cycle.
package hist

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// nBuckets is the number of histogram buckets: bits.Len64 of a non-negative
// int64 ranges over 0..63.
const nBuckets = 64

// Dist is a streaming distribution of non-negative int64 observations:
// count, sum, min, max and a fixed-boundary log2 histogram from which
// quantiles are estimated. The zero Dist is empty and ready to use.
//
// All state is integral, and Observe and Merge commute and associate, so
// folding any permutation of the same observations — across any number of
// independently folding workers — produces the same Dist, bit for bit.
type Dist struct {
	Count   int64
	Sum     int64
	Min     int64 // meaningful only when Count > 0
	Max     int64
	buckets [nBuckets]int64 // bucket i counts values v with bits.Len64(v) == i
}

// Observe folds one value. Negative values are clamped to 0: every metric
// folded into a Dist (rounds, moves, durations) is non-negative by
// construction, so a negative value is a caller bug rather than data.
//
// Sum saturates at MaxInt64 instead of wrapping: the state must stay
// non-negative (UnmarshalJSON rejects negative sums as corruption), and
// saturating addition of non-negative values is still associative and
// commutative, so the merge laws survive. A saturated sum only skews the
// mean; count, min/max and the histogram — everything quantiles derive
// from — are unaffected.
func (d *Dist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum = addSat(d.Sum, v)
	d.buckets[bits.Len64(uint64(v))]++
}

// addSat adds non-negative a and b, saturating at MaxInt64. For
// non-negative operands saturating addition is associative and commutative
// (the result is min(true sum, MaxInt64) regardless of grouping), which is
// what lets Sum use it without breaking the reducer laws.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Merge folds o into d. Merging is associative and commutative; merging an
// empty Dist is the identity.
func (d *Dist) Merge(o Dist) {
	if o.Count == 0 {
		return
	}
	if d.Count == 0 || o.Min < d.Min {
		d.Min = o.Min
	}
	if d.Count == 0 || o.Max > d.Max {
		d.Max = o.Max
	}
	d.Count += o.Count
	d.Sum = addSat(d.Sum, o.Sum)
	for i, c := range o.buckets {
		d.buckets[i] += c
	}
}

// Mean returns the arithmetic mean, or 0 for an empty Dist.
func (d *Dist) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// bucketBounds returns the value range [lo, hi] bucket i covers, clamped to
// the observed [Min, Max] so estimates never leave the data's actual range.
// Bounds are computed in uint64: bucket 63 covers [2^62, 2^63), and
// int64(1)<<63 would overflow to a negative hi that underflows lo.
func (d *Dist) bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		lo, hi = 0, 0
	} else {
		lo = float64(uint64(1) << (i - 1))
		hi = float64(uint64(1)<<i - 1)
	}
	if m := float64(d.Min); lo < m {
		lo = m
	}
	if m := float64(d.Max); hi > m {
		hi = m
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the histogram: it
// locates the bucket holding the continuous rank q·(Count-1) and
// interpolates linearly inside it. The estimate is a deterministic function
// of the histogram — equal Dists give bit-equal quantiles — and is exact
// whenever the rank's bucket covers a single value (buckets 0 and 1, or a
// bucket clamped by Min == Max). An empty Dist returns 0.
func (d *Dist) Quantile(q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Count-1)
	var cum int64
	for i, c := range d.buckets {
		if c == 0 {
			continue
		}
		if rank < float64(cum+c) || cum+c == d.Count {
			lo, hi := d.bucketBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return float64(d.Max) // unreachable: the loop covers all Count observations
}

// distWire is the JSON form of a Dist: the mergeable state (count, sum,
// min, max, trimmed buckets) plus derived conveniences (mean, p50, p90,
// p99) recomputed from that state on every marshal.
type distWire struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// MarshalJSON renders the Dist with derived fields included. The encoding
// is deterministic: fixed field order, integral state, and derived floats
// computed by fixed formulas from that state.
func (d Dist) MarshalJSON() ([]byte, error) {
	w := distWire{
		Count: d.Count,
		Sum:   d.Sum,
		Min:   d.Min,
		Max:   d.Max,
		Mean:  d.Mean(),
		P50:   d.Quantile(0.50),
		P90:   d.Quantile(0.90),
		P99:   d.Quantile(0.99),
	}
	top := -1
	for i, c := range d.buckets {
		if c != 0 {
			top = i
		}
	}
	if top >= 0 {
		w.Buckets = d.buckets[:top+1]
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores the mergeable state; derived fields are recomputed
// on demand, so a decoded Dist re-marshals to the same bytes. Corrupt or
// future-format documents fail loudly: a histogram with more than nBuckets
// buckets, a negative count, sum or bucket, a negative or inverted
// min/max range, or a bucket total disagreeing with Count would silently
// produce wrong (or negative-rank) quantiles, so all are rejected.
func (d *Dist) UnmarshalJSON(data []byte) error {
	var w distWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Count < 0 {
		return fmt.Errorf("hist: histogram count %d is negative", w.Count)
	}
	if w.Sum < 0 {
		return fmt.Errorf("hist: histogram sum %d is negative", w.Sum)
	}
	// Observe clamps values to >= 0, so real state always has
	// 0 <= Min <= Max when non-empty; anything else would degenerate the
	// bucket-bound clamps and poison merges with bogus extremes.
	if w.Count > 0 && (w.Min < 0 || w.Max < w.Min) {
		return fmt.Errorf("hist: histogram range [%d, %d] is not a non-negative interval", w.Min, w.Max)
	}
	if len(w.Buckets) > nBuckets {
		return fmt.Errorf("hist: histogram has %d buckets, limit %d", len(w.Buckets), nBuckets)
	}
	var total int64
	for i, c := range w.Buckets {
		if c < 0 {
			return fmt.Errorf("hist: histogram bucket %d is negative (%d)", i, c)
		}
		total += c
	}
	if total != w.Count {
		return fmt.Errorf("hist: histogram buckets sum to %d, count says %d", total, w.Count)
	}
	*d = Dist{Count: w.Count, Sum: w.Sum, Min: w.Min, Max: w.Max}
	copy(d.buckets[:], w.Buckets)
	return nil
}
