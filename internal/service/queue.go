package service

import (
	"context"
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

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	results   []JobResult // nil for summaryOnly jobs
	filled    []bool      // nil for summaryOnly jobs
	ready     int         // results[:ready] are deliverable
	completed int         // specs finished, in any order
	errMsg    string
	canceled  bool
	summary   *agg.Summary // set once when the job completes successfully

	// dequeued guards onDequeue — the queue's queued-depth decrement — so it
	// fires exactly once per job, whether the job leaves the queued state by
	// starting, by being canceled while queued, or by failing on submission
	// (backlog full). Canceled jobs still sit in the pending channel until a
	// worker pops and discards them; without this, they would inflate the
	// reported queue depth the whole time.
	dequeued  bool
	onDequeue func()

	// Memoized summary cache key: a pure function of the immutable spec
	// list, computed on first summary request rather than per request
	// (hashing canonicalizes every spec — O(n) work worth doing once).
	keyOnce   sync.Once
	sumKey    string
	sumKeyErr error
}

// summaryKey returns the job's derived summary cache key, computing it on
// first use.
func (jb *job) summaryKey() (string, error) {
	jb.keyOnce.Do(func() { jb.sumKey, jb.sumKeyErr = SweepSummaryKey(jb.specs) })
	return jb.sumKey, jb.sumKeyErr
}

func newJob(id string, specs []spec.ScenarioSpec, summaryOnly bool) *job {
	jb := &job{
		id:          id,
		specs:       specs,
		summaryOnly: summaryOnly,
		state:       JobQueued,
	}
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

// start moves the job to running unless it was canceled while queued.
func (jb *job) start() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state != JobQueued || jb.canceled {
		return false
	}
	jb.state = JobRunning
	jb.cond.Broadcast()
	return true
}

// finish terminalizes the job.
func (jb *job) finish(state JobState, errMsg string) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state == JobDone || jb.state == JobFailed {
		return
	}
	jb.state = state
	jb.errMsg = errMsg
	jb.cond.Broadcast()
}

// cancel marks the job canceled and reports whether the mark caught it
// still queued, which start then refuses: the caller ends such a job
// itself. A running job's executor observes the mark between specs
// (in-flight runs complete — the engine has no mid-run abort) and then
// fails the job.
func (jb *job) cancel() (queued bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	queued = jb.state == JobQueued && !jb.canceled
	jb.canceled = true
	jb.cond.Broadcast() // wake cancellation watchers (distributed jobs)
	return queued
}

// markDequeued fires the job's onDequeue hook exactly once, when the job
// leaves the queued state. The hook is called outside jb.mu: it takes the
// queue's lock, and the two locks must not nest.
func (jb *job) markDequeued() {
	jb.mu.Lock()
	f := jb.onDequeue
	if jb.dequeued {
		f = nil
	}
	jb.dequeued = true
	jb.mu.Unlock()
	if f != nil {
		f()
	}
}

func (jb *job) isCanceled() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.canceled
}

// waitCanceledOrTerminal blocks until the job is canceled or terminal —
// the trigger for unwinding a distributed job's remote work.
func (jb *job) waitCanceledOrTerminal() {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	for !jb.canceled && !jb.terminal() {
		jb.cond.Wait()
	}
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

// setSummary records the job's completed fold; read with summarySnapshot.
func (jb *job) setSummary(s *agg.Summary) {
	jb.mu.Lock()
	jb.summary = s
	jb.mu.Unlock()
}

// summarySnapshot returns the job's summary, or nil if the job has not
// completed successfully. The summary is written once and never mutated
// afterwards, so sharing the pointer is safe.
func (jb *job) summarySnapshot() *agg.Summary {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.summary
}

// waitTerminal blocks until the job reaches a terminal state or ctx is
// done, reporting whether the job is terminal.
func (jb *job) waitTerminal(ctx context.Context) bool {
	stop := context.AfterFunc(ctx, func() {
		jb.mu.Lock()
		jb.cond.Broadcast()
		jb.mu.Unlock()
	})
	defer stop()
	jb.mu.Lock()
	defer jb.mu.Unlock()
	for !jb.terminal() && ctx.Err() == nil {
		jb.cond.Wait()
	}
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
	stop := context.AfterFunc(ctx, func() {
		jb.mu.Lock()
		jb.cond.Broadcast()
		jb.mu.Unlock()
	})
	defer stop()
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.results == nil { // summary-only: no rows exist to wait for
		return JobResult{}, false
	}
	for jb.ready <= i && !jb.terminal() && ctx.Err() == nil {
		jb.cond.Wait()
	}
	if ctx.Err() != nil || jb.ready <= i {
		return JobResult{}, false
	}
	return jb.results[i], true
}

// queue runs submitted jobs on a bounded pool of job workers. The exec
// callback (service.go) runs one job's specs and must terminalize the job.
// The store is bounded: beyond retain jobs, the oldest terminal ones are
// evicted on submission (order tracks submission order for that sweep).
type queue struct {
	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	retain  int
	nextID  int
	queued  int // jobs submitted and still queued: not started, not canceled
	running int
	pending chan *job
	wg      sync.WaitGroup

	// accepted/rejected are the journaling hooks (service wiring, set
	// before the queue takes traffic). accepted runs after a submitted job
	// is registered but strictly before it becomes runnable — a job must
	// never start executing before its acceptance is durable, or a crash
	// in that window leaves an untraceable job. rejected runs when a
	// backlog-full rollback deregisters an accepted job again, so the
	// journal's view terminalizes too. Nil hooks no-op.
	accepted func(*job)
	rejected func(*job)
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
				// No-op for jobs already dequeued by a cancel-while-queued.
				jb.markDequeued()
				if !jb.start() {
					continue // canceled while queued
				}
				q.mu.Lock()
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

// submit registers a new job for the specs and enqueues it; it fails when
// the backlog is full rather than blocking the caller. A job rejected that
// way is deregistered again before the error returns: its ID was never
// handed to anyone, so leaving it in the store would occupy a retention
// slot no request can ever reach.
func (q *queue) submit(specs []spec.ScenarioSpec, summaryOnly bool) (*job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: job has no specs")
	}
	q.mu.Lock()
	q.nextID++
	jb := newJob(fmt.Sprintf("j%06d", q.nextID), specs, summaryOnly)
	jb.onDequeue = q.decQueued // set before publication in q.jobs
	q.queued++
	q.jobs[jb.id] = jb
	q.order = append(q.order, jb.id)
	accepted := q.accepted
	// Evict the oldest terminal jobs beyond the retention bound; live jobs
	// are never evicted, so the store can transiently exceed the bound
	// under a backlog of unfinished jobs.
	for len(q.jobs) > q.retain {
		evicted := false
		for i, id := range q.order {
			if old := q.jobs[id]; old.isTerminal() {
				delete(q.jobs, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	q.mu.Unlock()
	// Journal the acceptance before the job can start: once it is in the
	// pending channel a worker may execute (and crash) immediately, and a
	// job that ran before its acceptance was durable could never resume.
	if accepted != nil {
		accepted(jb)
	}
	select {
	case q.pending <- jb:
		return jb, nil
	default:
		jb.markDequeued()
		jb.finish(JobFailed, "queue backlog full")
		q.mu.Lock()
		delete(q.jobs, jb.id)
		for i := len(q.order) - 1; i >= 0; i-- {
			if q.order[i] == jb.id {
				q.order = append(q.order[:i], q.order[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
		// The journal saw an acceptance for a job the caller was refused:
		// terminalize it there too, or a restart would resurrect a ghost.
		if q.rejected != nil {
			q.rejected(jb)
		}
		return nil, fmt.Errorf("service: queue backlog full (%d jobs pending)", cap(q.pending))
	}
}

// resubmit re-admits a journaled non-terminal job under its original id
// after a restart — the counterpart of submit for jobs the journal proves
// were accepted but never finished. The id must be free (the caller
// replays the journal before taking traffic, so a collision means a
// corrupt log) and the queue's id counter advances past it so fresh
// submissions never collide with resurrected ids.
func (q *queue) resubmit(id string, specs []spec.ScenarioSpec, summaryOnly bool) (*job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: job has no specs")
	}
	q.mu.Lock()
	if _, exists := q.jobs[id]; exists {
		q.mu.Unlock()
		return nil, fmt.Errorf("service: job %s already exists", id)
	}
	q.noteIDLocked(id)
	jb := newJob(id, specs, summaryOnly)
	jb.onDequeue = q.decQueued
	q.queued++
	q.jobs[jb.id] = jb
	q.order = append(q.order, jb.id)
	q.mu.Unlock()
	select {
	case q.pending <- jb:
		return jb, nil
	default:
		jb.markDequeued()
		jb.finish(JobFailed, "queue backlog full")
		q.mu.Lock()
		delete(q.jobs, jb.id)
		for i := len(q.order) - 1; i >= 0; i-- {
			if q.order[i] == jb.id {
				q.order = append(q.order[:i], q.order[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
		return nil, fmt.Errorf("service: queue backlog full (%d jobs pending)", cap(q.pending))
	}
}

// install registers an already-terminal job in the store without queueing
// it — how restored done/failed jobs re-enter the job index. Duplicate ids
// are dropped: the live store wins over the journal.
func (q *queue) install(jb *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, exists := q.jobs[jb.id]; exists {
		return
	}
	q.noteIDLocked(jb.id)
	q.jobs[jb.id] = jb
	q.order = append(q.order, jb.id)
}

// noteIDLocked advances the id counter past a resurrected "j%06d" id so
// fresh submissions never reuse it. Callers hold q.mu.
func (q *queue) noteIDLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > q.nextID {
		q.nextID = n
	}
}

// get looks a job up by id.
func (q *queue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	return jb, ok
}

// decQueued is every job's onDequeue hook: one decrement when the job
// leaves the queued state (started, canceled while queued, or rejected on
// a full backlog).
func (q *queue) decQueued() {
	q.mu.Lock()
	q.queued--
	q.mu.Unlock()
}

// depth reports the number of queued (submitted, not yet started or
// canceled) and currently running jobs. The queued count is tracked
// explicitly rather than read from len(q.pending): jobs canceled while
// queued sit in the pending channel until a worker pops and discards them,
// and counting those would over-report the depth.
func (q *queue) depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued, q.running
}

// close stops accepting work and waits for the workers to drain.
func (q *queue) close() {
	close(q.pending)
	q.wg.Wait()
}
