package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/obs"
	olog "nochatter/internal/obs/log"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/spec"
)

// ChunkStore is the coordinator's persistence hook — satisfied by
// *journal.Journal. Completed chunks are recorded under their content
// address (the summary key of exactly the chunk's spec slice), so any
// later sweep planning an identical chunk — a resumed sweep after a
// coordinator crash, or a re-submitted one — gets it back without running
// anything. A nil store disables persistence; all methods must be safe for
// concurrent use.
type ChunkStore interface {
	// GetChunk returns the canonical summary recorded under key, if any.
	GetChunk(key string) ([]byte, bool)
	// PutChunk records a completed chunk's canonical summary under key.
	PutChunk(job, key string, canonical []byte)
	// PutPlan records a sweep's chunk keys in chunk-index order.
	PutPlan(job string, keys []string)
}

// Coordinator fans a sweep out over a fleet of gatherd workers. The spec
// list is partitioned by a deterministic, cost-weighted chunk planner
// (internal/sched) into many more chunks than workers; each worker pulls
// the next unclaimed chunk — its own first, then stealing from busier
// workers' queues — runs it as a summary-only job, and the per-chunk
// summaries fold into one total in fixed chunk order. Because every chunk
// job is a deterministic function of its specs and summary folding is
// associative and commutative (DESIGN.md §9), the merged total is
// bit-identical (agg.Summary.CanonicalJSON) to what one process computes
// for the whole sweep, whatever the assignment or completion order — the
// distributed analogue of the FoldBatch law. See DESIGN.md §12.
//
// Failover is per chunk: a worker that fails a health probe, a submission
// or a summary poll is retired for the remainder of that sweep, and its
// chunks — claimed or queued — are re-dispatched to survivors. A
// RejectedError (4xx) re-queues only the rejected chunk and leaves the
// worker in the fleet: it answered, it is healthy, and a deterministic
// rejection simply travels the fleet until the sweep fails with the
// backend's message. A sweep fails only when some chunk exhausts every
// worker that could still take it.
type Coordinator struct {
	workers []*Worker
	planner sched.Planner
	log     *slog.Logger

	// Observability (reporting-only; nil handles no-op). chunkMS is the
	// chunk-duration histogram registered by SetObs; tr receives chunk and
	// worker lifecycle events, tagged with the service job id when the
	// sweep's context carries one (obs.WithJob). chunksSkipped counts
	// chunks satisfied from the chunk store instead of being re-run.
	tr            *obs.Tracer
	chunkMS       *obs.Histogram
	chunksSkipped *obs.Counter

	// store, when set (SetChunkStore), persists the chunk plan and every
	// completed chunk's canonical summary, and is consulted before
	// dispatch so already-journaled chunks resolve without running.
	store ChunkStore

	// crash, when set (SetCrashpoint), is invoked at each chunk lifecycle
	// point; a non-nil return aborts the dispatch there — the
	// crash-injection hook the kill/resume tests drive. Nil in production.
	crash func(phase obs.Phase, chunk int) error

	//lint:allow detrand reporting-only throughput baseline; never enters results
	start time.Time

	mu      sync.Mutex
	stats   sched.FleetStats
	active  map[*sched.Dispatcher]*activeSweep
	lastErr []string // per-worker last retire/fail reason, "" when none
}

// activeSweep is a running dispatch the coordinator reports live progress
// for: /v1/fleet's active section and the live half of Stats().
type activeSweep struct {
	job     string
	started time.Time // reporting-only (ETA base)
}

// NewCoordinator returns a coordinator over the given workers, planning
// with the default cost-weighted chunker (sched.Planner zero value). The
// fleet is fixed for the coordinator's lifetime; worker health is
// re-discovered per sweep, so a worker that was down during one sweep is
// tried again by the next.
func NewCoordinator(workers ...*Worker) *Coordinator {
	return &Coordinator{
		workers: workers,
		log:     olog.Discard(),
		//lint:allow detrand reporting-only throughput baseline (chunks/sec denominators)
		start:   time.Now(),
		active:  make(map[*sched.Dispatcher]*activeSweep),
		lastErr: make([]string, len(workers)),
	}
}

// SetLogger attaches a structured logger for fleet lifecycle events —
// worker retirements, chunk failures and retries log the worker URL and
// chunk id. The default discards. Not safe to call concurrently with a
// running sweep.
func (c *Coordinator) SetLogger(l *slog.Logger) {
	if l == nil {
		l = olog.Discard()
	}
	c.log = l
}

// SetObs attaches the observability sinks: a chunk_ms duration histogram
// is registered on reg, and tr receives the full chunk lifecycle
// (claimed/stolen/retried/merged/failed, plus worker retirements) for
// every subsequent sweep. Either argument may be nil. Not safe to call
// concurrently with a running sweep.
func (c *Coordinator) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		c.chunkMS = reg.Histogram("chunk_ms")
		c.chunksSkipped = reg.Counter("chunks_skipped")
	}
	c.tr = tr
}

// SetChunkStore attaches the completed-chunk persistence hook (typically a
// *journal.Journal): the chunk plan and every completed chunk's canonical
// summary are recorded, and recorded chunks are skipped — resolved straight
// into the merge — on subsequent identical dispatches. Persistence cannot
// change results: a recorded summary is the deterministic function of the
// same specs the chunk would have re-run (DESIGN.md §14). Call it before
// the coordinator takes traffic; it is not synchronized against running
// sweeps.
func (c *Coordinator) SetChunkStore(store ChunkStore) { c.store = store }

// SetCrashpoint installs a crash-injection hook for the kill/resume tests:
// fn is invoked at every chunk lifecycle point (queued after the plan is
// journaled, claimed, running, merged after the completion is journaled,
// and done after all workers drain), and a non-nil error aborts the sweep
// right there — the in-process analogue of a SIGKILL, deterministic enough
// to table-drive. Production wiring never calls this.
func (c *Coordinator) SetCrashpoint(fn func(phase obs.Phase, chunk int) error) { c.crash = fn }

// crashpoint fires the injected crash hook, aborting the dispatch when it
// reports a crash; it returns false when the caller must stop immediately.
func (c *Coordinator) crashpoint(d *sched.Dispatcher, phase obs.Phase, chunk int) bool {
	if c.crash == nil {
		return true
	}
	if err := c.crash(phase, chunk); err != nil {
		d.Abort(err)
		return false
	}
	return true
}

// Workers returns the fleet size.
func (c *Coordinator) Workers() int { return len(c.workers) }

// SetPlanner replaces the chunk planner for subsequent sweeps. The zero
// Planner restores the default. Not safe to call concurrently with a
// running sweep.
func (c *Coordinator) SetPlanner(p sched.Planner) { c.planner = p }

// Stats returns the scheduler counters accumulated across every sweep the
// coordinator has dispatched — chunks dispatched, stolen, retried, failed
// and completed per worker — with any in-flight sweep's counters folded in
// live, so /metrics moves while a long sweep runs instead of jumping when
// it finishes. Safe for concurrent use.
func (c *Coordinator) Stats() sched.FleetStats {
	c.mu.Lock()
	out := c.stats.Clone()
	dispatchers := make([]*sched.Dispatcher, 0, len(c.active))
	//lint:allow maporder AbsorbLive is commutative per-worker addition; order cannot reach results
	for d := range c.active {
		dispatchers = append(dispatchers, d)
	}
	c.mu.Unlock()
	// Dispatcher.Stats takes the dispatcher's own lock; taken outside ours.
	for _, d := range dispatchers {
		out.AbsorbLive(d.Stats())
	}
	return out
}

// SummarizeSpecs plans the spec list into chunks, dispatches them
// pull-style across the fleet with per-chunk retry and work stealing, and
// merges the chunk summaries — in chunk-index order, regardless of which
// worker ran what or when it finished — into the sweep's total.
func (c *Coordinator) SummarizeSpecs(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error) {
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator has no workers")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: sweep has no specs")
	}
	plan := c.planner.PlanSpecs(specs, len(c.workers))
	d := sched.NewDispatcher(plan, len(c.workers))
	sums := make([]*agg.Summary, len(plan))

	job := obs.JobFrom(ctx)
	d.SetObs(c.tr, job)
	c.log.Debug("sweep dispatched", "job", job, "specs", len(specs), "chunks", len(plan), "workers", len(c.workers))
	c.mu.Lock()
	//lint:allow detrand sweep start timestamp: ETA reporting only, never part of results
	c.active[d] = &activeSweep{job: job, started: time.Now()}
	c.mu.Unlock()

	// Consult the chunk store before dispatching: every chunk whose
	// content-addressed summary is already recorded — journaled by an
	// interrupted run of this sweep, or by any earlier sweep containing an
	// identical chunk — resolves straight into the merge slot, and only
	// the remainder is dispatched. The planner is a pure function of
	// (specs, workers), so a resumed sweep replans identically and the
	// recorded keys line up chunk for chunk.
	var keys []string
	if c.store != nil {
		if ks, err := chunkKeys(plan, specs); err == nil {
			keys = ks
			c.store.PutPlan(job, keys)
			skipped := 0
			for _, ch := range plan {
				buf, ok := c.store.GetChunk(keys[ch.Index])
				if !ok {
					continue
				}
				sum := agg.NewSummary()
				if sum.UnmarshalJSON(buf) != nil {
					continue // an undecodable entry is just a cache miss
				}
				sums[ch.Index] = sum
				d.Resolve(ch)
				skipped++
			}
			if skipped > 0 {
				c.chunksSkipped.Add(int64(skipped))
				c.log.Debug("chunks resumed from journal", "job", job, "skipped", skipped, "of", len(plan))
			}
		}
	}
	c.crashpoint(d, obs.PhaseQueued, obs.NoChunk)

	// Propagate cancellation into blocked Claim calls.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			d.Abort(ctx.Err())
		case <-watcherDone:
		}
	}()

	var wg sync.WaitGroup
	for wi := range c.workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.runWorker(ctx, d, wi, specs, sums, keys)
		}(wi)
	}
	wg.Wait()
	c.crashpoint(d, obs.PhaseDone, obs.NoChunk)

	// The dispatch is over: drop it from the live set, then absorb its
	// final counters — in that order under one lock hold, so a concurrent
	// Stats() never sees the sweep both live and absorbed.
	c.mu.Lock()
	delete(c.active, d)
	c.stats.Absorb(d.Stats())
	c.mu.Unlock()

	if err := d.Err(); err != nil {
		// A canceled sweep surfaces as the cancellation, not as whichever
		// worker failure the teardown happened to observe first.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.log.Warn("sweep failed", "job", job, "err", err)
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.log.Debug("sweep merged", "job", job, "chunks", len(plan))
	total := agg.NewSummary()
	for _, s := range sums {
		total.Merge(s)
	}
	return total, nil
}

// runWorker drives one worker's pull loop: probe health once, then claim,
// run and report chunks until the dispatcher has nothing left for it.
// Every claimed chunk is handed back — Done on success, Fail otherwise —
// before the loop moves on or exits, so no chunk is ever stranded
// in-flight. A chunk job abandoned mid-flight (cancellation, or a summary
// poll that failed after submission) is best-effort canceled on its
// backend so the fleet stops burning capacity on output nobody will read.
func (c *Coordinator) runWorker(ctx context.Context, d *sched.Dispatcher, wi int, specs []spec.ScenarioSpec, sums []*agg.Summary, keys []string) {
	w := c.workers[wi]
	progress := obs.ProgressFrom(ctx)
	job := obs.JobFrom(ctx)
	if !w.Healthy(ctx) {
		err := fmt.Errorf("cluster: %s is unhealthy", w.Base())
		c.noteWorkerErr(wi, err)
		c.log.Warn("worker retired", "worker", w.Base(), "reason", "health probe failed")
		d.Retire(wi, err)
		return
	}
	for {
		chunk, ok, err := d.Claim(wi)
		if err != nil || !ok {
			return
		}
		if !c.crashpoint(d, obs.PhaseClaimed, chunk.Index) {
			return
		}
		if !c.crashpoint(d, obs.PhaseRunning, chunk.Index) {
			return
		}
		//lint:allow detrand chunk wall time: feeds the chunk_ms histogram only, never results
		begin := time.Now()
		sum, err := c.runChunk(ctx, w, specs[chunk.Lo:chunk.Hi])
		if err == nil {
			//lint:allow detrand same reporting-only chunk duration measurement
			c.chunkMS.Observe(time.Since(begin).Milliseconds())
			sums[chunk.Index] = sum
			// Journal the completion before reporting Done: a crash between
			// the two re-runs the chunk on resume (safe), the reverse order
			// could drop a completion the dispatcher already counted.
			if c.store != nil && keys != nil {
				if canon, cerr := sum.CanonicalJSON(); cerr == nil {
					c.store.PutChunk(job, keys[chunk.Index], canon)
				}
			}
			if !c.crashpoint(d, obs.PhaseMerged, chunk.Index) {
				return
			}
			d.Done(wi, chunk)
			if progress != nil {
				progress(d.Progress().SpecsDone)
			}
			continue
		}
		c.noteWorkerErr(wi, err)
		c.log.Warn("chunk failed", "worker", w.Base(), "chunk", chunk.Index, "specs", chunk.Specs(), "err", err)
		d.Fail(wi, chunk, err)
		if ctx.Err() != nil {
			return // the watcher aborts the dispatch
		}
		if !IsRejected(err) {
			// Transport failure, 5xx, or a poll that died: the worker is
			// gone for this sweep. A rejection (4xx) leaves it standing —
			// it answered, and killing it would starve other chunks.
			c.log.Warn("worker retired", "worker", w.Base(), "chunk", chunk.Index, "err", err)
			d.Retire(wi, fmt.Errorf("cluster: %s: %w", w.Base(), err))
			return
		}
	}
}

// noteWorkerErr remembers worker wi's most recent failure for /v1/fleet's
// last-error column.
func (c *Coordinator) noteWorkerErr(wi int, err error) {
	c.mu.Lock()
	c.lastErr[wi] = err.Error()
	c.mu.Unlock()
}

// chunkKeys computes each chunk's content address: the summary key of
// exactly the chunk's spec slice. A pure function of (plan, specs), so an
// interrupted sweep's replanned chunks rediscover their journaled
// summaries key for key.
func chunkKeys(plan []sched.Chunk, specs []spec.ScenarioSpec) ([]string, error) {
	keys := make([]string, len(plan))
	for _, ch := range plan {
		k, err := service.SweepSummaryKey(specs[ch.Lo:ch.Hi])
		if err != nil {
			return nil, err
		}
		keys[ch.Index] = k
	}
	return keys, nil
}

// runChunk runs one chunk on one worker: submit the chunk's specs as a
// summary-only job and long-poll the summary.
func (c *Coordinator) runChunk(ctx context.Context, w *Worker, shard []spec.ScenarioSpec) (*agg.Summary, error) {
	jobID, err := w.SubmitSummaryOnly(ctx, shard)
	if err != nil {
		return nil, err
	}
	sum, err := w.Summary(ctx, jobID)
	if err != nil {
		abandonJob(w, jobID)
		return nil, err
	}
	return sum, nil
}

// abandonJob tells a worker to cancel a job the coordinator no longer
// wants. Pure damage control: it runs on its own short deadline (the
// sweep's context may already be canceled — that is often why the job is
// being abandoned) and ignores failure, since a worker that is actually
// dead cannot be burning capacity anyway.
func abandonJob(w *Worker, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.Cancel(ctx, jobID)
}
