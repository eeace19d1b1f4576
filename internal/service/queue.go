package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nochatter/internal/agg"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// JobState is the lifecycle position of a queued sweep:
// queued → running → done | failed. Cancellation lands in failed with
// Error "canceled".
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobResult is one spec's outcome within a job — one line of the NDJSON
// results stream, delivered in input order.
type JobResult struct {
	Index  int            `json:"index"`
	Name   string         `json:"name,omitempty"`
	Key    string         `json:"key,omitempty"`
	Cached bool           `json:"cached"`
	Result *sim.RunResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Specs     int      `json:"specs"`
	Completed int      `json:"completed"`
	Error     string   `json:"error,omitempty"`
}

// job is the internal state of one queued sweep. Workers fill results out
// of order; ready is the in-order delivery watermark streaming readers wait
// on, so a results stream always observes input order regardless of which
// spec finishes first.
type job struct {
	id    string
	specs []spec.ScenarioSpec

	// summaryOnly jobs retain no raw results: each spec's outcome is folded
	// into the summary and no per-spec row state is allocated at all, so a
	// million-scenario sweep holds one Summary (plus a completion counter)
	// instead of a million rows. Their /results endpoint refuses; /summary
	// is the product.
	summaryOnly bool

	// ctx is canceled when the job is, and released when it ends: the local
	// runner stops starting specs and the distributor's requests unwind.
	ctx  context.Context
	stop context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	results   []JobResult // nil for summaryOnly jobs
	filled    []bool      // nil for summaryOnly jobs
	ready     int         // results[:ready] are deliverable
	completed int         // specs finished, in any order
	errMsg    string
	summary   *agg.Summary // set with the terminal state of a done job

	// Memoized summary key: a pure function of the immutable spec list,
	// computed on first summary request rather than per request (hashing
	// canonicalizes every spec — O(n) work worth doing once).
	keyOnce   sync.Once
	sumKey    string
	sumKeyErr error
}

// summaryKey returns the job's derived summary key, computing it on first
// use.
func (jb *job) summaryKey() (string, error) {
	jb.keyOnce.Do(func() { jb.sumKey, jb.sumKeyErr = SweepSummaryKey(jb.specs) })
	return jb.sumKey, jb.sumKeyErr
}

// newJob returns a queued job; an empty id asks queue.add for the next one.
func newJob(id string, specs []spec.ScenarioSpec, summaryOnly bool) *job {
	jb := &job{
		id:          id,
		specs:       specs,
		summaryOnly: summaryOnly,
		state:       JobQueued,
	}
	jb.ctx, jb.stop = context.WithCancel(context.Background())
	if !summaryOnly {
		jb.results = make([]JobResult, len(specs))
		jb.filled = make([]bool, len(specs))
	}
	jb.cond = sync.NewCond(&jb.mu)
	return jb
}

// setResult records spec i's outcome and advances the in-order watermark.
// Summary-only jobs count the completion but store nothing.
func (jb *job) setResult(i int, r JobResult) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	jb.completed++
	if jb.results != nil {
		jb.results[i] = r
		jb.filled[i] = true
		for jb.ready < len(jb.filled) && jb.filled[jb.ready] {
			jb.ready++
		}
	}
	jb.cond.Broadcast()
}

// start moves a queued job to running and reports whether it did; a job
// canceled while queued stays put. start and cancel both decide under
// jb.mu, so exactly one of them reports the job leaving the queued state,
// and its caller takes the job out of the queued count.
func (jb *job) start() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state != JobQueued || jb.ctx.Err() != nil {
		return false
	}
	jb.state = JobRunning
	jb.cond.Broadcast()
	return true
}

// cancel cancels the job's context and reports whether it caught the job
// still queued, which start then refuses: the caller ends such a job
// itself. A running job's executor sees the context between specs
// (in-flight runs complete — the engine has no mid-run abort) and then
// fails the job.
func (jb *job) cancel() (queued bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	queued = jb.state == JobQueued && jb.ctx.Err() == nil
	jb.stop()
	return queued
}

// finish terminalizes the job with its summary, nil unless the job is
// done. A done job has completed every spec.
func (jb *job) finish(state JobState, errMsg string, sum *agg.Summary) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.terminal() {
		return
	}
	jb.stop()
	jb.state, jb.errMsg, jb.summary = state, errMsg, sum
	if state == JobDone {
		jb.completed = len(jb.specs)
	}
	jb.cond.Broadcast()
}

// setCompleted records n specs finished at once: a distributed job's specs
// complete as whole shards on remote workers, not one by one here.
func (jb *job) setCompleted(n int) {
	jb.mu.Lock()
	jb.completed = n
	jb.cond.Broadcast()
	jb.mu.Unlock()
}

func (jb *job) terminal() bool {
	return jb.state == JobDone || jb.state == JobFailed // callers hold jb.mu
}

// isTerminal is the locking form of terminal, for callers outside the
// job's own methods (queue eviction).
func (jb *job) isTerminal() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.terminal()
}

// summarySnapshot returns the job's summary, or nil if the job has not
// completed successfully. The summary is written once and never mutated
// afterwards, so sharing the pointer is safe.
func (jb *job) summarySnapshot() *agg.Summary {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.summary
}

// wait blocks until done holds or ctx is done. Callers hold jb.mu, under
// which done runs.
func (jb *job) wait(ctx context.Context, done func() bool) {
	stop := context.AfterFunc(ctx, func() {
		jb.mu.Lock()
		jb.cond.Broadcast()
		jb.mu.Unlock()
	})
	defer stop()
	for !done() && ctx.Err() == nil {
		jb.cond.Wait()
	}
}

// waitTerminal blocks until the job reaches a terminal state or ctx is
// done, reporting whether the job is terminal.
func (jb *job) waitTerminal(ctx context.Context) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	jb.wait(ctx, jb.terminal)
	return jb.terminal()
}

// status snapshots the job for the API.
func (jb *job) status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return JobStatus{ID: jb.id, State: jb.state, Specs: len(jb.specs), Completed: jb.completed, Error: jb.errMsg}
}

// waitResult blocks until result i is deliverable in order, the job reaches
// a terminal state without producing it, or ctx is done. ok reports whether
// a result was delivered.
func (jb *job) waitResult(ctx context.Context, i int) (r JobResult, ok bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.results == nil { // summary-only: no rows exist to wait for
		return JobResult{}, false
	}
	jb.wait(ctx, func() bool { return jb.ready > i || jb.terminal() })
	if ctx.Err() != nil || jb.ready <= i {
		return JobResult{}, false
	}
	return jb.results[i], true
}

// errClosed refuses jobs enqueued after the service closed.
var errClosed = errors.New("service: closed")

// queue runs registered jobs on a bounded pool of job workers. The exec
// callback (service.go) runs one job's specs and must terminalize the job.
// The store is bounded: beyond retain jobs, the oldest terminal ones are
// evicted whenever a job is added (order tracks registration order for
// that sweep).
type queue struct {
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	retain  int
	nextID  int
	queued  int // registered jobs not yet started, canceled or refused
	running int
	closed  bool // set with close(pending); enqueue refuses from then on
	pending chan *job
	wg      sync.WaitGroup
}

// newQueue starts workers goroutines draining the pending channel.
func newQueue(workers, backlog, retain int, exec func(*job)) *queue {
	if workers < 1 {
		workers = 1
	}
	if backlog < 1 {
		backlog = 1024
	}
	if retain < 1 {
		retain = 1
	}
	q := &queue{jobs: make(map[string]*job), retain: retain, pending: make(chan *job, backlog)}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for jb := range q.pending {
				if !jb.start() {
					continue // canceled while queued; cancel left the count
				}
				q.mu.Lock()
				q.queued--
				q.running++
				q.mu.Unlock()
				exec(jb)
				q.mu.Lock()
				q.running--
				q.mu.Unlock()
			}
		}()
	}
	return q
}

// add registers a job — fresh, resumed or restored — and evicts the oldest
// terminal jobs beyond the retention bound. A fresh job (empty id) gets
// the next id. A resumed or restored job keeps its own, which must be
// free, and the id counter advances past it so fresh jobs never reuse it.
// A job not yet terminal counts as queued until start or cancel takes it
// out.
func (q *queue) add(jb *job) error {
	if len(jb.specs) == 0 {
		return fmt.Errorf("service: job has no specs")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if jb.id == "" {
		q.nextID++
		jb.id = fmt.Sprintf("j%06d", q.nextID)
	} else if _, exists := q.jobs[jb.id]; exists {
		return fmt.Errorf("service: job %s already exists", jb.id)
	} else {
		var n int
		if _, err := fmt.Sscanf(jb.id, "j%d", &n); err == nil {
			q.nextID = max(q.nextID, n)
		}
	}
	if !jb.isTerminal() {
		q.queued++
	}
	q.jobs[jb.id] = jb
	q.order = append(q.order, jb.id)
	// Live jobs are never evicted, so the store can transiently exceed the
	// bound under a backlog of unfinished jobs.
	for len(q.jobs) > q.retain {
		i := 0
		for i < len(q.order) && !q.jobs[q.order[i]].isTerminal() {
			i++
		}
		if i == len(q.order) {
			break
		}
		q.removeLocked(i)
	}
	return nil
}

// removeLocked deregisters the job at order[i]. Callers hold q.mu.
func (q *queue) removeLocked(i int) {
	delete(q.jobs, q.order[i])
	q.order = append(q.order[:i], q.order[i+1:]...)
}

// enqueue hands a registered job to the workers. On a full backlog, or
// once the queue is closed, it rolls the job back instead: the job leaves
// the queued count, fails, and is deregistered — its id was never handed
// to anyone, so it would only occupy a retention slot no request reaches.
func (q *queue) enqueue(jb *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	err, reason := errClosed, errClosed.Error()
	if !q.closed {
		select {
		case q.pending <- jb:
			return nil
		default:
			err = fmt.Errorf("service: queue backlog full (%d jobs pending)", cap(q.pending))
			reason = "queue backlog full"
		}
	}
	if jb.cancel() {
		q.queued--
	}
	jb.finish(JobFailed, reason, nil)
	for i := len(q.order) - 1; i >= 0; i-- {
		if q.order[i] == jb.id {
			q.removeLocked(i)
			break
		}
	}
	return err
}

// cancel cancels jb and reports whether it caught the job queued; such a
// job leaves the queued count here, and the caller ends it.
func (q *queue) cancel(jb *job) bool {
	if !jb.cancel() {
		return false
	}
	q.mu.Lock()
	q.queued--
	q.mu.Unlock()
	return true
}

// get looks a job up by id.
func (q *queue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	return jb, ok
}

// depth reports the number of queued (registered, not yet started,
// canceled or refused) and currently running jobs. The queued count is
// tracked explicitly rather than read from len(q.pending): jobs canceled
// while queued sit in the pending channel until a worker pops and discards
// them, and counting those would over-report the depth.
func (q *queue) depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued, q.running
}

// close refuses further jobs and waits for the workers to drain the ones
// already queued.
func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.pending)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
