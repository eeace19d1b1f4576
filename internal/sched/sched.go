// Package sched is the fleet's work scheduler: it deterministically
// partitions an expanded sweep into many small cost-balanced chunks
// (Planner), lets idle workers pull the next unclaimed chunk from a shared
// queue (Dispatcher) — the pull itself is the work stealing — and defines
// the fixed chunk order in which per-chunk summaries must be folded so the
// merged total is bit-identical to a single-process run.
//
// The design follows the deterministic-partitioning-with-exact-recombination
// discipline of the Bobpp framework (PAPERS.md, arXiv:1406.2844): the
// partition is a pure function of the spec list and the scheduling
// parameters — never of timing, worker identity or completion order — and
// recombination folds chunk results by chunk index. Which worker runs which
// chunk, and in what order chunks finish, is free to vary run to run; the
// merged summary cannot, because every chunk job is a deterministic function
// of its specs (the repo's no-chatter guarantee, DESIGN.md §11) and
// agg.Summary.Merge is associative and commutative (§9). Work stealing
// therefore needs no coordination protocol at all: claiming a chunk is a
// single compare-and-claim on the shared queue, and a chunk abandoned by a
// dying worker is simply re-queued for any survivor.
//
// Why chunks instead of one shard per worker (internal/cluster before this
// package): per-spec cost varies by orders of magnitude with graph family,
// n and wake schedule, so contiguous equal-count shards make the whole
// fleet wait on whichever shard drew the expensive specs — BENCH_PR5.json
// measured 0.94x "speedup" on 4 backends. Cost-weighted chunks (cost.go)
// shrink the imbalance the model can predict; pull-based stealing absorbs
// the imbalance it cannot (non-gathering runs that burn the full round
// budget, cache hits, stragglers). See DESIGN.md §12.
package sched

// DefaultChunksPerWorker is the planner's default chunk-count target per
// worker. More chunks mean finer stealing granularity (better balance) but
// more per-chunk submission overhead; 8 keeps overhead low while leaving
// idle workers plenty to steal. BENCH_PR7.json records the sensitivity.
const DefaultChunksPerWorker = 8

// Chunk is one schedulable unit: the half-open spec range [Lo, Hi) of the
// expanded sweep, its planner-predicted cost, and its fixed position Index
// in the plan — the order per-chunk summaries are folded in, whatever
// order they complete in.
type Chunk struct {
	Index int   `json:"index"`
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Cost  int64 `json:"cost"`
}

// Specs returns the number of specs the chunk spans.
func (c Chunk) Specs() int { return c.Hi - c.Lo }

// StaticBounds returns the half-open range [lo, hi) of shard i when n
// items are partitioned contiguously over the given shard count. The
// dispatcher uses it to assign chunks to home queues. It is a pure
// function; shards differ in size by at most one item, so when n < shards
// some shards are empty.
func StaticBounds(n, shards, i int) (lo, hi int) {
	return i * n / shards, (i + 1) * n / shards
}
