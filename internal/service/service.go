package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/journal"
	"nochatter/internal/obs"
	"nochatter/internal/sched"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// Config sizes a Service. The zero value selects the defaults noted per
// field.
type Config struct {
	// CacheSize bounds the LRU result cache, in entries (default 1024).
	CacheSize int
	// Workers bounds how many sweep jobs run concurrently (default 2).
	Workers int
	// Parallelism bounds how many specs of one job run concurrently
	// (default GOMAXPROCS).
	Parallelism int
	// Backlog bounds the number of submitted-but-not-started jobs
	// (default 1024); submissions beyond it are rejected, not queued.
	Backlog int
	// MaxSweepSpecs rejects sweep submissions that expand to more specs
	// than this (default 10000) — the guard against a three-line sweep
	// definition fanning out into an unbounded amount of work.
	MaxSweepSpecs int
	// RetainedJobs bounds the job store (default 4096): when a submission
	// would exceed it, the oldest *terminal* jobs — results included — are
	// evicted and their ids start returning 404. Without a bound, a
	// long-running daemon would retain every job ever submitted.
	RetainedJobs int
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 1024
	}
	if c.MaxSweepSpecs <= 0 {
		c.MaxSweepSpecs = 10000
	}
	if c.RetainedJobs <= 0 {
		c.RetainedJobs = 4096
	}
	return c
}

// Service is the simulation-as-a-service core: a content-addressed result
// cache with singleflight deduplication in front of the deterministic
// compile-and-run path, plus an async job queue for sweeps. cmd/gatherd
// serves its Handler; tests and benchmarks drive it in-process.
type Service struct {
	cfg   Config
	cache *resultCache
	fl    flightGroup
	queue *queue
	start time.Time

	// execute compiles and runs one spec; tests swap it to count
	// executions. It must stay deterministic.
	execute func(spec.ScenarioSpec) (*sim.RunResult, error)

	// distribute, when set (SetDistributor), computes a summary-only job's
	// whole summary instead of running its specs locally — the hook
	// cmd/gatherd -workers uses to fan sweeps out to a cluster.Coordinator.
	// It must be a deterministic function of the specs.
	distribute func(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error)

	// schedStats, when set (SetSchedulerStats), reports the distributor's
	// scheduler counters so /metrics can expose them.
	schedStats func() sched.FleetStats

	// fleet, when set (SetFleet), serves GET /v1/fleet — the coordinator's
	// per-worker fleet status. Absent on plain workers, where the endpoint
	// 404s.
	fleet func(ctx context.Context) any

	// jnl, when set (SetJournal), records job acceptance and terminal
	// state to the crash-safe journal, and ResumeJournal re-admits
	// journaled non-terminal jobs after a restart. Nil disables
	// persistence; every hook no-ops.
	jnl *journal.Journal

	// reg is the service's metrics registry: every counter below is a
	// registry metric under its historical /metrics key, and the /metrics
	// document is a single registry snapshot. tracer records job (and,
	// through the coordinator, chunk) lifecycle events for
	// GET /v1/jobs/{id}/trace.
	reg    *obs.Registry
	tracer *obs.Tracer

	requests      *obs.Counter // HTTP requests served (any endpoint)
	runRequests   *obs.Counter // specs served via RunSpec (HTTP or job)
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	coalesced     *obs.Counter // joined a concurrent identical execution
	sweepJobs     *obs.Counter
	specsExecuted *obs.Counter // actual engine runs (misses only)
	roundsSim     *obs.Counter // logical rounds of those runs
	roundsStepped *obs.Counter // engine-stepped rounds of those runs

	jobWallMS *obs.Histogram // per-job wall time, ms
	specRunUS *obs.Histogram // per-spec serve time (cache hits included), µs

	jobsResumed *obs.Counter // jobs re-admitted from the journal
	resumeMS    *obs.Gauge   // wall time of the last ResumeJournal, ms
}

// New returns a started service; Close releases its job workers.
func New(cfg Config) *Service {
	s := &Service{cfg: cfg.withDefaults(), start: time.Now()}
	s.cache = newResultCache(s.cfg.CacheSize)
	s.execute = s.compileAndRun
	s.initObs()
	s.queue = newQueue(s.cfg.Workers, s.cfg.Backlog, s.cfg.RetainedJobs, s.runJob)
	return s
}

// initObs builds the registry and tracer and registers every metric under
// the key it has always had on /metrics — the document is now a registry
// snapshot, but its vocabulary is unchanged (metrics_compat_test.go pins
// it). Derived values (rates, depths, uptime) are gauge functions
// evaluated at snapshot time, outside the registry lock.
func (s *Service) initObs() {
	s.reg = obs.NewRegistry()
	s.tracer = obs.NewTracer(obs.DefaultTraceEvents)
	s.requests = s.reg.Counter("requests")
	s.runRequests = s.reg.Counter("run_requests")
	s.cacheHits = s.reg.Counter("cache_hits")
	s.cacheMisses = s.reg.Counter("cache_misses")
	s.coalesced = s.reg.Counter("coalesced")
	s.sweepJobs = s.reg.Counter("sweep_jobs")
	s.specsExecuted = s.reg.Counter("specs_executed")
	s.roundsSim = s.reg.Counter("rounds_simulated")
	s.roundsStepped = s.reg.Counter("stepped_rounds")
	s.jobWallMS = s.reg.Histogram("job_wall_ms")
	s.specRunUS = s.reg.Histogram("spec_run_us")
	s.jobsResumed = s.reg.Counter("jobs_resumed")
	s.resumeMS = s.reg.Gauge("resume_ms")
	s.reg.GaugeFunc("cache_entries", func() float64 { return float64(s.cache.len()) })
	s.reg.GaugeFunc("jobs_queued", func() float64 {
		queued, _ := s.queue.depth()
		return float64(queued)
	})
	s.reg.GaugeFunc("jobs_running", func() float64 {
		_, running := s.queue.depth()
		return float64(running)
	})
	s.reg.GaugeFunc("cache_hit_rate", s.cacheHitRate)
	s.reg.GaugeFunc("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("rounds_per_second", func() float64 {
		if up := time.Since(s.start).Seconds(); up > 0 {
			return float64(s.roundsSim.Value()) / up
		}
		return 0
	})
	s.reg.Object("scheduler", func() any {
		if s.schedStats == nil {
			return nil // plain worker: the key is absent, as it always was
		}
		fs := s.schedStats()
		return &fs
	})
}

// cacheHitRate counts coalesced executions as hits — the work was not
// repeated.
func (s *Service) cacheHitRate() float64 {
	hits, co, misses := s.cacheHits.Value(), s.coalesced.Value(), s.cacheMisses.Value()
	if served := hits + co + misses; served > 0 {
		return float64(hits+co) / float64(served)
	}
	return 0
}

// Registry returns the service's metrics registry, for wiring additional
// subsystem metrics (the cluster coordinator's chunk histogram, a
// sim.Runner's counters) into the same /metrics document.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Tracer returns the service's lifecycle tracer, for wiring chunk-level
// dispatch events into the same per-job trace the service records job
// events on.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Close drains the job workers. Jobs still queued run to completion first;
// jobs submitted from then on are refused with "service: closed".
func (s *Service) Close() { s.queue.close() }

// SetDistributor routes summary-only sweep jobs through fn — typically a
// cluster.Coordinator fanning shards out to worker backends — instead of
// the local spec runner. Everything else (single runs, raw-row sweeps, the
// whole job lifecycle: status, summary long-polling, cancellation) keeps
// working locally and unchanged; fn's context is the job's, canceled when
// the job is. fn must be a deterministic function of the specs, or the
// merge-determinism guarantee and byte-exact resume break. Call it before
// the service starts taking traffic; it is not synchronized against
// running jobs.
func (s *Service) SetDistributor(fn func(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error)) {
	s.distribute = fn
}

// SetSchedulerStats exposes the distributor's scheduler counters —
// typically cluster.(*Coordinator).Stats — under the "scheduler" key of
// GET /metrics, so operators of a coordinator node can watch chunks being
// dispatched, stolen and retried per worker. Call it alongside
// SetDistributor, before the service takes traffic.
func (s *Service) SetSchedulerStats(fn func() sched.FleetStats) {
	s.schedStats = fn
}

// SetFleet exposes a coordinator's fleet status document — typically
// cluster.(*Coordinator).Fleet — as GET /v1/fleet. Nodes without it (plain
// workers) answer 404 there. Call it alongside SetDistributor, before the
// service takes traffic.
func (s *Service) SetFleet(fn func(ctx context.Context) any) {
	s.fleet = fn
}

// SetJournal attaches the crash-safe journal: every accepted job and every
// terminal transition is recorded, so ResumeJournal can rebuild the job
// store after a restart. Call it before the service takes traffic,
// alongside the other wiring hooks; it is not synchronized against running
// jobs. A nil journal (or never calling this) disables persistence.
//
// A submission journals its acceptance after the job is registered but
// before it becomes runnable — a job must never start executing (or
// crash) ahead of its acceptance record, and the append is cheap enough to
// sit on the submission path. A submission the queue then refuses
// terminalizes in the journal too, so a restart does not resurrect a job
// whose caller was refused.
func (s *Service) SetJournal(j *journal.Journal) {
	s.jnl = j
}

// ResumeJournal rebuilds job state from the attached journal, called once
// at startup before the service takes traffic. Terminal jobs are restored
// into the job store — status and summary survive the restart; raw result
// rows do not, so restored jobs serve like summary-only ones — and
// non-terminal jobs are re-admitted to the queue under their original ids,
// where they re-run from the top: replanning is deterministic, and every
// chunk the journal holds a completed summary for is skipped by the
// coordinator's chunk store, so only the unfinished remainder executes.
//
// Resume is deliberately invisible to the submission metrics: sweep_jobs
// counts client submissions and a re-admitted job is not a new one.
// jobs_resumed counts the re-admissions instead, resume_ms the wall time
// of the rebuild, and each re-admitted job's trace gains a resumed event.
// It returns how many jobs were re-admitted.
func (s *Service) ResumeJournal() (int, error) {
	if s.jnl == nil {
		return 0, nil
	}
	begin := time.Now()
	st := s.jnl.State()
	// Restore terminal jobs only up to the retention bound, newest first —
	// the journal remembers every job since the log began, the store
	// deliberately does not.
	keep := make(map[string]bool)
	terminal := 0
	for i := len(st.Order) - 1; i >= 0; i-- {
		js := st.Jobs[st.Order[i]]
		if js.Terminal() && len(js.Specs) > 0 && terminal < s.cfg.RetainedJobs {
			keep[js.ID] = true
			terminal++
		}
	}
	resumed := 0
	var firstErr error
	for _, id := range st.Order {
		js := st.Jobs[id]
		specs, err := decodeJournaledSpecs(js.Specs)
		if err != nil || len(specs) == 0 {
			continue // chunk-only entries and jobs whose spec list never landed
		}
		if js.Terminal() {
			if keep[id] {
				s.restoreTerminal(id, specs, js)
			}
			continue
		}
		jb := newJob(id, specs, js.SummaryOnly)
		err = s.queue.add(jb)
		if err == nil {
			err = s.queue.enqueue(jb)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resumed++
		s.jobsResumed.Add(1)
		s.tracer.Record(id, obs.NoChunk, obs.NoWorker, obs.PhaseResumed, "")
		s.tracer.Record(id, obs.NoChunk, obs.NoWorker, obs.PhaseQueued, "")
	}
	s.resumeMS.Set(time.Since(begin).Milliseconds())
	return resumed, firstErr
}

// decodeJournaledSpecs decodes a journaled spec list with UseNumber — the
// same convention Parse and ParseSweepDef follow — so 64-bit algorithm
// parameters (randomized seeds) survive the journal round-trip with full
// precision instead of sagging through float64.
func decodeJournaledSpecs(raw json.RawMessage) ([]spec.ScenarioSpec, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var specs []spec.ScenarioSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// restoreTerminal rebuilds one finished job from its journal state. Raw
// rows are not journaled, so the restored job retains none (its results
// endpoint refuses, like a summary-only job's); a done job without a
// readable summary cannot be served and is dropped entirely, as is a job
// whose id is already taken: the live store wins over the journal.
func (s *Service) restoreTerminal(id string, specs []spec.ScenarioSpec, js *journal.JobState) {
	state := JobState(js.State)
	if state != JobDone && state != JobFailed {
		return
	}
	var sum *agg.Summary
	if state == JobDone {
		sum = agg.NewSummary()
		if len(js.Summary) == 0 || sum.UnmarshalJSON(js.Summary) != nil {
			return
		}
	}
	jb := newJob(id, specs, true)
	jb.finish(state, js.Error, sum)
	_ = s.queue.add(jb) // fails only on a taken id
}

// journalAccepted records a registered job's acceptance, with its whole
// spec list so a restart can re-run it.
func (s *Service) journalAccepted(jb *job) {
	if s.jnl == nil {
		return
	}
	if raw, err := json.Marshal(jb.specs); err == nil {
		//lint:allow errsink the journal records write errors internally and Close surfaces them; an unjournaled acceptance only re-queues the job on resume
		_ = s.jnl.JobAccepted(jb.id, raw, jb.summaryOnly)
	}
}

// journalTerminal records a job's terminal transition, carrying the full
// summary document for done jobs so the summary store survives restarts.
func (s *Service) journalTerminal(jb *job, state JobState, errMsg string, sum *agg.Summary) {
	if s.jnl == nil {
		return
	}
	var sumRaw json.RawMessage
	if sum != nil {
		sumRaw, _ = sum.MarshalJSON()
	}
	//lint:allow errsink the journal records write errors internally and Close surfaces them; a lost terminal record re-runs the job on resume, never corrupts it
	_ = s.jnl.JobTerminal(jb.id, string(state), errMsg, sumRaw)
}

// finishJob journals a job's terminal record, then makes the job terminal
// with its summary. In that order no client can see a finished job, or
// read its summary, whose record a crash could still lose and re-run on
// restart — the same order acceptance follows (DESIGN.md §14).
func (s *Service) finishJob(jb *job, state JobState, errMsg string, sum *agg.Summary) {
	s.journalTerminal(jb, state, errMsg, sum)
	jb.finish(state, errMsg, sum)
}

// SetExecutor replaces the per-spec execution function the cache sits in
// front of. The default compiles and runs the spec in-process; harnesses
// swap in wrappers — counting executions, or pacing runs to emulate a
// fixed-capacity backend — around the same deterministic result. fn must
// remain a pure function of the spec: its results are content-addressed,
// cached and merged under that assumption. Call it before the service
// takes traffic; it is not synchronized against running jobs.
func (s *Service) SetExecutor(fn func(spec.ScenarioSpec) (*sim.RunResult, error)) {
	s.execute = fn
}

func (s *Service) compileAndRun(sp spec.ScenarioSpec) (*sim.RunResult, error) {
	sc, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return sim.Run(sc)
}

// RunSpec serves one spec through the cache: a hit returns the stored
// outcome (result or memoized deterministic failure), a miss compiles and
// runs exactly once even under N concurrent identical submissions
// (singleflight), then stores the outcome. cached reports whether this
// caller's answer came without a fresh engine run (cache hit or coalesced
// execution). Results are shared; callers must not mutate them.
func (s *Service) RunSpec(sp spec.ScenarioSpec) (key string, res *sim.RunResult, cached bool, err error) {
	s.runRequests.Add(1)
	key, err = SpecKey(sp)
	if err != nil {
		return "", nil, false, err
	}
	if e, ok := s.cache.get(key); ok {
		s.cacheHits.Add(1)
		return key, e.res, true, e.err
	}
	res, err, shared := s.fl.do(key, func() (*sim.RunResult, error) {
		// Re-check under the flight: a leader for this key may have
		// finished (storing the outcome and retiring its call) between our
		// cache miss and entering the flight group; without this, that
		// window would re-execute the run.
		if e, ok := s.cache.get(key); ok {
			return e.res, e.err
		}
		r, err := s.execute(sp)
		if err != nil {
			// The memo keeps the message only, not what err references.
			s.cache.add(key, nil, errors.New(err.Error()))
			return nil, err
		}
		s.specsExecuted.Add(1)
		s.roundsSim.Add(int64(r.Rounds))
		s.roundsStepped.Add(int64(r.SteppedRounds))
		s.cache.add(key, r, nil)
		return r, nil
	})
	if shared {
		s.coalesced.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	if err != nil {
		return key, nil, shared, err
	}
	return key, res, shared, nil
}

// maxTeamSize bounds one team of a submitted sweep: team construction
// allocates per-agent slices, so an absurd size in a tiny JSON document
// must be rejected before any allocation happens.
const maxTeamSize = 1 << 20

// SubmitSweep expands a sweep definition and enqueues its specs as one
// async job, returning the job's initial status. Expansion is bounded up
// front: a definition whose axis product exceeds MaxSweepSpecs is rejected
// arithmetically, before any spec materializes.
func (s *Service) SubmitSweep(def spec.SweepDef) (JobStatus, error) {
	return s.submitSweep(def, false)
}

// SubmitSweepSummaryOnly is SubmitSweep in summary-only mode: the job folds
// every result into its streaming agg.Summary and discards the raw rows, so
// the sweep's memory cost is one summary no matter how many specs it
// expands to. The job's results endpoint refuses; its summary endpoint is
// the product. This is the wire form POST /v1/sweeps?summary=only selects.
func (s *Service) SubmitSweepSummaryOnly(def spec.SweepDef) (JobStatus, error) {
	return s.submitSweep(def, true)
}

func (s *Service) submitSweep(def spec.SweepDef, summaryOnly bool) (JobStatus, error) {
	for _, k := range def.TeamSizes {
		if k > maxTeamSize {
			return JobStatus{}, fmt.Errorf("service: sweep team size %d exceeds the limit of %d", k, maxTeamSize)
		}
	}
	for _, tm := range def.Teams {
		if len(tm.Labels) > maxTeamSize {
			return JobStatus{}, fmt.Errorf("service: sweep team of %d agents exceeds the limit of %d", len(tm.Labels), maxTeamSize)
		}
	}
	for _, sp := range def.Explicit {
		if len(sp.Agents) > maxTeamSize {
			return JobStatus{}, fmt.Errorf("service: sweep spec of %d agents exceeds the limit of %d", len(sp.Agents), maxTeamSize)
		}
	}
	limit := s.cfg.MaxSweepSpecs
	// The explicit list plus the product of the axis lengths equals the
	// spec count, so an over-limit sweep is rejected arithmetically —
	// before even the graph axis materializes.
	graphs := addCapped(len(def.Graphs), mulCapped(len(def.Families), len(def.Sizes), limit), limit)
	teams := addCapped(len(def.Teams), len(def.TeamSizes), limit)
	product := mulCapped(graphs, teams, limit)
	if def.Zip {
		product = graphs
	}
	product = mulCapped(product, maxOne(len(def.Wakes)), limit)
	product = mulCapped(product, maxOne(len(def.Algorithms)), limit)
	product = addCapped(product, len(def.Explicit), limit)
	if product > limit {
		return JobStatus{}, fmt.Errorf("service: sweep expands to more than %d specs", limit)
	}
	specs, err := def.Specs()
	if err != nil {
		return JobStatus{}, err
	}
	return s.submitSpecs(specs, summaryOnly)
}

// mulCapped multiplies non-negative a and b, saturating at cap+1 (so
// comparisons against cap stay valid without overflow).
func mulCapped(a, b, cap int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > cap/b+1 {
		return cap + 1
	}
	if p := a * b; p <= cap {
		return p
	}
	return cap + 1
}

// addCapped adds non-negative a and b, saturating at cap+1.
func addCapped(a, b, cap int) int {
	if s := a + b; s <= cap {
		return s
	}
	return cap + 1
}

// maxOne maps an absent (empty) axis to its implicit single element.
func maxOne(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// SubmitSpecs enqueues an explicit spec list as one async job.
func (s *Service) SubmitSpecs(specs []spec.ScenarioSpec) (JobStatus, error) {
	return s.submitSpecs(specs, false)
}

func (s *Service) submitSpecs(specs []spec.ScenarioSpec, summaryOnly bool) (JobStatus, error) {
	if len(specs) > s.cfg.MaxSweepSpecs {
		return JobStatus{}, fmt.Errorf("service: sweep expands to %d specs, above the limit of %d", len(specs), s.cfg.MaxSweepSpecs)
	}
	jb := newJob("", specs, summaryOnly)
	if err := s.queue.add(jb); err != nil {
		return JobStatus{}, err
	}
	// Journal the acceptance before the job can start: once it is enqueued
	// a worker may execute (and crash) immediately, and a job that ran
	// before its acceptance was durable could never resume.
	s.journalAccepted(jb)
	if err := s.queue.enqueue(jb); err != nil {
		// The journal saw an acceptance for a job the caller was refused:
		// terminalize it there too, or a restart would resurrect a ghost.
		st := jb.status()
		s.journalTerminal(jb, st.State, st.Error, nil)
		return JobStatus{}, err
	}
	s.sweepJobs.Add(1)
	s.tracer.Record(jb.id, obs.NoChunk, obs.NoWorker, obs.PhaseQueued, "")
	return jb.status(), nil
}

// Job returns the status of a job.
func (s *Service) Job(id string) (JobStatus, bool) {
	jb, ok := s.queue.get(id)
	if !ok {
		return JobStatus{}, false
	}
	return jb.status(), true
}

// CancelJob cancels a job: queued jobs fail immediately, running jobs stop
// starting new specs and then fail.
func (s *Service) CancelJob(id string) (JobStatus, bool) {
	jb, ok := s.queue.get(id)
	if !ok {
		return JobStatus{}, false
	}
	if s.queue.cancel(jb) {
		// A cancel-while-queued never reaches runJob, so the job is ended
		// here, before the DELETE is answered: finishJob journals its
		// terminal record before the job turns terminal, as for a running
		// job.
		s.tracer.Record(jb.id, obs.NoChunk, obs.NoWorker, obs.PhaseFailed, "canceled")
		s.finishJob(jb, JobFailed, "canceled", nil)
	}
	return jb.status(), true
}

// runJob executes one job — locally or through the distributor — wrapped
// in its lifecycle instrumentation: a running trace event going in (which
// closes the queued span, so the event carries the job's queue latency), a
// done/failed event and a job_wall_ms observation coming out. All of it is
// reporting-only: tracing is invisible to results, summaries and cache
// keys.
func (s *Service) runJob(jb *job) {
	s.tracer.Record(jb.id, obs.NoChunk, obs.NoWorker, obs.PhaseRunning, "")
	begin := time.Now()
	if jb.summaryOnly && s.distribute != nil {
		s.runJobDistributed(jb)
	} else {
		s.runJobLocal(jb)
	}
	s.jobWallMS.Observe(time.Since(begin).Milliseconds())
	st := jb.status()
	if st.State == JobDone {
		s.tracer.Record(jb.id, obs.NoChunk, obs.NoWorker, obs.PhaseDone, "")
	} else {
		s.tracer.Record(jb.id, obs.NoChunk, obs.NoWorker, obs.PhaseFailed, st.Error)
	}
}

// runJobLocal executes a job's specs on a bounded worker pool, each spec
// served through the cache (so overlapping sweeps and repeat submissions
// reuse results), and terminalizes the job. Results land in input order
// behind the job's delivery watermark. As results arrive each worker folds
// them into its own agg.Summary; the per-worker summaries merge into the
// job's summary when the job completes — so every finished job has a
// streaming aggregate, and a summary-only job stores nothing else.
func (s *Service) runJobLocal(jb *job) {
	sum := sim.Fold(s.cfg.Parallelism, len(jb.specs), func() bool { return jb.ctx.Err() == nil }, agg.NewSummary,
		func(fold *agg.Summary, i int) {
			sp := jb.specs[i]
			start := time.Now()
			key, res, cached, err := s.RunSpec(sp)
			wall := time.Since(start)
			s.specRunUS.Observe(wall.Microseconds())
			fold.Observe(agg.KeyOf(sp), res, err, wall)
			r := JobResult{Index: i, Name: sp.Name, Key: key, Cached: cached, Result: res}
			if err != nil {
				r.Error = err.Error()
			}
			// For summary-only jobs setResult stores nothing — the fold
			// above is the only retained outcome.
			jb.setResult(i, r)
		}, (*agg.Summary).Merge)
	if jb.ctx.Err() != nil {
		s.finishJob(jb, JobFailed, "canceled", nil)
		return
	}
	s.finishJob(jb, JobDone, "", sum)
}

// runJobDistributed executes a summary-only job through the distributor:
// the fleet computes the summary, the local job object keeps carrying the
// lifecycle — status polling, summary long-polling and cancellation, which
// cancels the job's context and with it the distributor's — as for a
// locally run job.
func (s *Service) runJobDistributed(jb *job) {
	// The coordinator tags its chunk trace events with this job's id and
	// reports cumulative spec completions back through the progress sink, so
	// a polling client sees a distributed job advance chunk by chunk instead
	// of jumping from 0 to done.
	ctx := obs.WithProgress(obs.WithJob(jb.ctx, jb.id), jb.setCompleted)
	sum, err := s.distribute(ctx, jb.specs)
	switch {
	case jb.ctx.Err() != nil:
		s.finishJob(jb, JobFailed, "canceled", nil)
	case err != nil:
		s.finishJob(jb, JobFailed, err.Error(), nil)
	default:
		s.finishJob(jb, JobDone, "", sum)
	}
}

// Metrics is the wire form of GET /metrics.
type Metrics struct {
	Requests        int64   `json:"requests"`
	RunRequests     int64   `json:"run_requests"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	Coalesced       int64   `json:"coalesced"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	CacheEntries    int     `json:"cache_entries"`
	SweepJobs       int64   `json:"sweep_jobs"`
	JobsQueued      int     `json:"jobs_queued"`
	JobsRunning     int     `json:"jobs_running"`
	SpecsExecuted   int64   `json:"specs_executed"`
	RoundsSimulated int64   `json:"rounds_simulated"`
	SteppedRounds   int64   `json:"stepped_rounds"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	RoundsPerSecond float64 `json:"rounds_per_second"`
	// Scheduler carries the coordinator's chunk-dispatch counters when this
	// node distributes sweeps over a fleet (SetSchedulerStats); absent on
	// plain workers.
	Scheduler *sched.FleetStats `json:"scheduler,omitempty"`
}

// Snapshot returns current service metrics as the typed Metrics struct —
// the in-process API tests and harnesses read. (GET /metrics serves the
// registry snapshot instead; both views read the same counters, and the
// wire keys coincide by construction.) Hit rate counts coalesced
// executions as hits — the work was not repeated. Rounds/sec is logical
// rounds simulated over process uptime: the event-driven engine's
// fast-forward makes it far exceed stepped rounds per second.
func (s *Service) Snapshot() Metrics {
	m := Metrics{
		Requests:        s.requests.Value(),
		RunRequests:     s.runRequests.Value(),
		CacheHits:       s.cacheHits.Value(),
		CacheMisses:     s.cacheMisses.Value(),
		Coalesced:       s.coalesced.Value(),
		CacheEntries:    s.cache.len(),
		SweepJobs:       s.sweepJobs.Value(),
		SpecsExecuted:   s.specsExecuted.Value(),
		RoundsSimulated: s.roundsSim.Value(),
		SteppedRounds:   s.roundsStepped.Value(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		CacheHitRate:    s.cacheHitRate(),
	}
	m.JobsQueued, m.JobsRunning = s.queue.depth()
	if s.schedStats != nil {
		fs := s.schedStats()
		m.Scheduler = &fs
	}
	if m.UptimeSeconds > 0 {
		m.RoundsPerSecond = float64(m.RoundsSimulated) / m.UptimeSeconds
	}
	return m
}
