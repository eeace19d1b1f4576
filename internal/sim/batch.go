package sim

import (
	"runtime"
	"sync"
	"time"
)

// Runner executes scenarios with shared defaults, sequentially via Run or as
// a parallel batch via RunBatch. Construct it with NewRunner and functional
// options; the zero Runner is valid and equivalent to plain Run with
// GOMAXPROCS-wide batches.
type Runner struct {
	maxRounds   int
	onRound     func(RoundView)
	parallelism int
}

// Option configures a Runner.
type Option func(*Runner)

// WithMaxRounds sets the default round budget applied to every scenario that
// does not set its own MaxRounds.
func WithMaxRounds(n int) Option {
	return func(r *Runner) { r.maxRounds = n }
}

// WithOnRound sets a default per-round hook applied to every scenario that
// does not set its own OnRound. The hook forces per-round stepping (see
// Scenario.OnRound). With parallelism > 1 it is invoked concurrently from
// different scenarios, so a stateful hook must either synchronize or be set
// per scenario instead.
func WithOnRound(f func(RoundView)) Option {
	return func(r *Runner) { r.onRound = f }
}

// WithParallelism sets the number of scenarios RunBatch executes
// concurrently. Values < 1 select GOMAXPROCS. Parallelism never affects
// results: scenarios are independent and each run is deterministic.
func WithParallelism(p int) Option {
	return func(r *Runner) { r.parallelism = p }
}

// NewRunner returns a Runner with the given options applied.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// apply fills the runner's defaults into a scenario.
func (r *Runner) apply(sc Scenario) Scenario {
	if sc.MaxRounds == 0 && r.maxRounds != 0 {
		sc.MaxRounds = r.maxRounds
	}
	if sc.OnRound == nil && r.onRound != nil {
		sc.OnRound = r.onRound
	}
	return sc
}

// Run executes one scenario under the runner's defaults.
func (r *Runner) Run(sc Scenario) (*RunResult, error) {
	return Run(r.apply(sc))
}

// BatchResult is the outcome of one scenario of a batch, in input order.
type BatchResult struct {
	Index  int
	Result *RunResult
	Err    error

	// Wall is the measured wall time of this scenario's run. Unlike every
	// other field it is not deterministic; internal/agg keeps it out of the
	// canonical summary encoding for that reason.
	Wall time.Duration
}

// runTimed executes one scenario and measures its wall time.
func (r *Runner) runTimed(i int, sc Scenario) BatchResult {
	//lint:allow detrand Wall is reporting-only: agg excludes it from canonical encodings (DESIGN.md §9)
	start := time.Now()
	res, err := r.Run(sc)
	//lint:allow detrand same wall-time measurement as above; never hashed or merged canonically
	return BatchResult{Index: i, Result: res, Err: err, Wall: time.Since(start)}
}

// Fold runs body(acc, i) for i = 0..n-1 on a pool of p goroutines and
// returns the merged accumulator. Each worker owns one accumulator from
// newA; once every call has returned, the accumulators merge left to right
// in worker order. p < 1 selects GOMAXPROCS and p is capped at n; with
// p <= 1 every body runs on the caller's goroutine.
//
// Indices go out in increasing order over an unbuffered channel, so no
// window bounds how far the pool runs ahead of a slow index. more, when
// non-nil, runs on the caller's goroutine before each index; once it
// returns false no further index goes out, and Fold returns when the calls
// in flight have.
//
// Which worker runs an index depends on scheduling, so for the result to
// be independent of it, body must write only index-addressed state or fold
// commutatively and associatively, as merge must.
func Fold[A any](p, n int, more func() bool, newA func() A, body func(acc A, i int), merge func(dst, src A)) A {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	p = min(p, n)
	if p <= 1 {
		acc := newA()
		for i := 0; i < n && (more == nil || more()); i++ {
			body(acc, i)
		}
		return acc
	}
	accs := make([]A, p)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := range accs {
		accs[w] = newA()
		wg.Add(1)
		go func(acc A) {
			defer wg.Done()
			for i := range idx {
				body(acc, i)
			}
		}(accs[w])
	}
	for i := 0; i < n && (more == nil || more()); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, acc := range accs[1:] {
		merge(accs[0], acc)
	}
	return accs[0]
}

// RunBatch executes all scenarios on a worker pool (Fold) and returns one
// result per scenario, in input order. Each scenario runs to completion
// independently; an error in one does not stop the others. Workers write
// straight into the result slice with no delivery window, so one slow
// scenario never idles the rest of the pool.
func (r *Runner) RunBatch(scs []Scenario) []BatchResult {
	out := make([]BatchResult, len(scs))
	Fold(r.parallelism, len(scs), nil, func() struct{} { return struct{}{} }, func(_ struct{}, i int) {
		out[i] = r.runTimed(i, scs[i])
	}, func(_, _ struct{}) {})
	return out
}

// RunBatch executes scenarios on a worker pool with the given options; see
// Runner.RunBatch.
func RunBatch(scs []Scenario, opts ...Option) []BatchResult {
	return NewRunner(opts...).RunBatch(scs)
}

// FoldBatch executes all scenarios on r's worker pool and folds every result
// into an accumulator WITHOUT ever materializing the result set: each worker
// folds the runs it executes into its own accumulator (newA, fold), right
// after each run returns, and the per-worker accumulators are merged
// left-to-right in worker order (merge) once all runs complete (see Fold).
// One million-scenario sweep therefore costs O(p) accumulators of memory,
// not O(n) results — the fold-as-you-stream path internal/agg builds its
// streaming summaries on.
//
// Workers fold results in completion order, so fold and merge must be
// commutative and associative for the outcome to be independent of
// scheduling. Every agg reducer satisfies this (integer adds, min/max,
// histogram-bucket adds), which is what makes a summary bit-identical
// across parallelism degrees.
func FoldBatch[A any](r *Runner, scs []Scenario, newA func() A, fold func(A, BatchResult), merge func(dst, src A)) A {
	return Fold(r.parallelism, len(scs), nil, newA, func(acc A, i int) {
		fold(acc, r.runTimed(i, scs[i]))
	}, merge)
}
