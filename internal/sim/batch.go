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

// RunBatch executes all scenarios on a worker pool and returns one result
// per scenario, in input order. Each scenario runs to completion
// independently; an error in one does not stop the others. Unlike Stream,
// workers write straight into the result slice with no delivery window, so
// one slow scenario never idles the rest of the pool.
func (r *Runner) RunBatch(scs []Scenario) []BatchResult {
	out := make([]BatchResult, len(scs))
	p := r.parallelism
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(scs) {
		p = len(scs)
	}
	if p <= 1 {
		for i, sc := range scs {
			out[i] = r.runTimed(i, sc)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = r.runTimed(i, scs[i])
			}
		}()
	}
	for i := range scs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// Stream executes all scenarios on a worker pool and delivers each result
// to yield in input order, without materializing the result slice — the
// consumer of a million-scenario sweep holds one result at a time. Workers
// run ahead of the consumer by at most the parallelism degree (completed
// out-of-order results are buffered until their turn). yield returning
// false stops the stream: no new scenarios start, and Stream returns after
// in-flight runs finish.
func (r *Runner) Stream(scs []Scenario, yield func(BatchResult) bool) {
	p := r.parallelism
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(scs) {
		p = len(scs)
	}
	if p <= 1 {
		for i, sc := range scs {
			if !yield(r.runTimed(i, sc)) {
				return
			}
		}
		return
	}
	jobs := make(chan int)
	results := make(chan BatchResult, p)
	stop := make(chan struct{})
	// credits caps the number of scenarios that are running or completed
	// but not yet delivered: the feeder takes a credit per job, the
	// consumer returns one per in-order delivery. Without it, one slow
	// early scenario would let the pool race ahead and buffer the whole
	// batch in the reorder map.
	credits := make(chan struct{}, p)
	for w := 0; w < p; w++ {
		credits <- struct{}{}
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				select {
				case <-stop:
					continue // drain handed-out jobs without running them
				default:
				}
				results <- r.runTimed(i, scs[i])
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range scs {
			select {
			case <-credits:
			case <-stop:
				return
			}
			select {
			case <-stop: // checked with priority: both cases of the next
				return // select can be ready at once
			default:
			}
			select {
			case jobs <- i:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	// Reorder: deliver strictly by index, buffering results that finish
	// ahead of their turn (at most p of them, by the credit window).
	pending := make(map[int]BatchResult, p)
	next := 0
	stopped := false
	for br := range results {
		if stopped {
			continue // drain so workers can exit
		}
		pending[br.Index] = br
		for !stopped {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !yield(b) {
				stopped = true
				close(stop)
				break
			}
			credits <- struct{}{}
		}
	}
}

// RunBatch executes scenarios on a worker pool with the given options; see
// Runner.RunBatch.
func RunBatch(scs []Scenario, opts ...Option) []BatchResult {
	return NewRunner(opts...).RunBatch(scs)
}

// RunStream executes scenarios on a worker pool with the given options,
// streaming results in input order; see Runner.Stream.
func RunStream(scs []Scenario, yield func(BatchResult) bool, opts ...Option) {
	NewRunner(opts...).Stream(scs, yield)
}

// FoldBatch executes all scenarios on r's worker pool and folds every result
// into an accumulator WITHOUT ever materializing the result set: each worker
// folds the runs it executes into its own accumulator (newA, fold), and the
// per-worker accumulators are merged left-to-right in worker order (merge)
// once all runs complete. One million-scenario sweep therefore costs O(p)
// accumulators of memory, not O(n) results — the fold-as-you-stream path
// internal/agg builds its streaming summaries on.
//
// Workers fold results in completion order, so fold and merge must be
// commutative and associative for the outcome to be independent of
// scheduling. Every agg reducer satisfies this (integer adds, min/max,
// histogram-bucket adds), which is what makes a summary bit-identical
// across parallelism degrees.
func FoldBatch[A any](r *Runner, scs []Scenario, newA func() A, fold func(A, BatchResult), merge func(dst, src A)) A {
	p := r.parallelism
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(scs) {
		p = len(scs)
	}
	if p <= 1 {
		acc := newA()
		for i, sc := range scs {
			fold(acc, r.runTimed(i, sc))
		}
		return acc
	}
	accs := make([]A, p)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := newA()
			for i := range jobs {
				fold(acc, r.runTimed(i, scs[i]))
			}
			accs[w] = acc
		}(w)
	}
	for i := range scs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	total := accs[0]
	for _, acc := range accs[1:] {
		merge(total, acc)
	}
	return total
}
