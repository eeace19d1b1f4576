package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"nochatter/internal/journal"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBacklogFullSubmitDeregisters is the regression test for the
// backlog-full job leak: a submission rejected because the pending channel
// is full used to stay registered in q.jobs/q.order under an ID the caller
// never received, occupying a retention slot until eviction.
func TestBacklogFullSubmitDeregisters(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(1, 1, 100, func(jb *job) {
		<-release
		jb.finish(JobDone, "", nil)
	})
	defer func() { close(release); q.close() }()

	one := []spec.ScenarioSpec{{Graph: spec.GraphSpec{Family: "ring", N: 4}}}
	submit := func() (*job, error) {
		jb := newJob("", one, false)
		if err := q.add(jb); err != nil {
			return nil, err
		}
		return jb, q.enqueue(jb)
	}
	first, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pop the first job so the single backlog slot
	// is free for the second, which then fills it.
	waitFor(t, "first job running", func() bool { return first.status().State == JobRunning })
	if _, err := submit(); err != nil {
		t.Fatal(err)
	}
	_, err = submit()
	if err == nil || !strings.Contains(err.Error(), "backlog full") {
		t.Fatalf("third submit: got %v, want backlog-full error", err)
	}

	q.mu.Lock()
	jobs, order, queued := len(q.jobs), len(q.order), q.queued
	q.mu.Unlock()
	if jobs != 2 || order != 2 {
		t.Errorf("rejected job leaked: %d jobs, %d order entries, want 2/2", jobs, order)
	}
	if queued != 1 {
		t.Errorf("queued count = %d after rejected submit, want 1", queued)
	}
}

// TestQueueDepthExcludesCanceled is the regression test for jobs_queued
// over-reporting: a job canceled while queued sits in the pending channel
// until a worker pops it, but must leave the reported queue depth the
// moment it is canceled.
func TestQueueDepthExcludesCanceled(t *testing.T) {
	svc := New(Config{Workers: 1})
	release := make(chan struct{})
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return nil, fmt.Errorf("released")
	}
	defer func() { close(release); svc.Close() }()

	mkSpecs := func(i int) []spec.ScenarioSpec {
		return []spec.ScenarioSpec{{Graph: spec.GraphSpec{Family: "ring", N: 4 + i}}}
	}
	if _, err := svc.SubmitSpecs(mkSpecs(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool { return svc.Snapshot().JobsRunning == 1 })

	queued, err := svc.SubmitSpecs(mkSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	if m := svc.Snapshot(); m.JobsQueued != 1 {
		t.Fatalf("jobs_queued = %d with one queued job, want 1", m.JobsQueued)
	}
	if _, ok := svc.CancelJob(queued.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	// The canceled job still occupies a pending-channel slot (the single
	// worker is blocked), but the metric must drop immediately.
	if m := svc.Snapshot(); m.JobsQueued != 0 {
		t.Fatalf("jobs_queued = %d after canceling the queued job, want 0", m.JobsQueued)
	}
	if st, _ := svc.Job(queued.ID); st.State != JobFailed || st.Error != "canceled" {
		t.Fatalf("canceled-while-queued job state = %+v, want failed/canceled", st)
	}
}

// TestCancelRunningSummaryOnlyJob cancels a summary-only job mid-run and
// asserts the full unwind: the job terminalizes as failed, a long-polling
// /summary request unblocks with a non-200, and no goroutines are left
// behind (meaningful under -race, which CI runs).
func TestCancelRunningSummaryOnlyJob(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 1})
	release := make(chan struct{})
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return nil, fmt.Errorf("released")
	}
	srv := httptest.NewServer(svc.Handler())

	body := `{"families":["ring"],"sizes":[6,8,10],"teams":[{"labels":[1,2]}]}`
	resp, err := http.Post(srv.URL+"/v1/sweeps?summary=only", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "job running", func() bool {
		st, _ := svc.Job(acc.JobID)
		return st.State == JobRunning
	})

	// A summary long-poller arrives while the job is mid-run and blocks.
	summaryCode := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + acc.JobID + "/summary")
		if err != nil {
			summaryCode <- -1
			return
		}
		resp.Body.Close()
		summaryCode <- resp.StatusCode
	}()

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+acc.JobID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// The in-flight spec completes (the engine has no mid-run abort), then
	// the executor observes the cancel mark and fails the job.
	close(release)
	select {
	case code := <-summaryCode:
		if code != http.StatusConflict {
			t.Fatalf("long-polled summary of canceled job: HTTP %d, want 409", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("summary long-poller did not unblock after cancellation")
	}
	waitFor(t, "job terminal", func() bool {
		st, _ := svc.Job(acc.JobID)
		return st.State == JobFailed && st.Error == "canceled"
	})

	srv.Close()
	svc.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestSubmitAfterCloseRefused pins what a submission after Close gets: the
// error "service: closed", not a send on the closed pending channel that
// panics the daemon on its way out. The refused job rolls back like a
// backlog refusal: deregistered, out of the queued count, and terminal in
// the journal.
func TestSubmitAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	svc, jnl := journaledService(t, dir, Config{})
	svc.Close()
	_, err := svc.SubmitSpecs(differentialSpecs()[:1])
	if err == nil || err.Error() != "service: closed" {
		t.Fatalf("submit after Close: got %v, want service: closed", err)
	}
	if m := svc.Snapshot(); m.JobsQueued != 0 || m.SweepJobs != 0 {
		t.Errorf("refused job counted: jobs_queued=%d sweep_jobs=%d, want 0/0", m.JobsQueued, m.SweepJobs)
	}
	if _, ok := svc.Job("j000001"); ok {
		t.Error("refused job is still registered")
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	js, ok := jnl2.State().Jobs["j000001"]
	if !ok || !js.Terminal() || js.State != string(JobFailed) {
		t.Fatalf("journaled refusal = %+v (found %v), want a failed terminal record", js, ok)
	}
}

// TestJobLifecycleSchedule drives seeded schedules of submissions, cancels
// and run completions through a journaled service with two job workers
// and a backlog of three, so submissions meet full backlogs and cancels
// land on queued and running jobs in every order. The queued and running
// counts never go negative and drain to zero, every accepted job ends
// terminal, and the replayed journal holds every job, accepted or refused,
// as terminal.
func TestJobLifecycleSchedule(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { lifecycleSchedule(t, seed, 300) })
	}
}

func lifecycleSchedule(t *testing.T, seed int64, steps int) {
	dir := t.TempDir()
	svc, jnl := journaledService(t, dir, Config{Workers: 2, Backlog: 3, Parallelism: 2})
	release := make(chan struct{})
	svc.SetExecutor(func(spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return &sim.RunResult{Rounds: 1}, nil
	})
	rng := rand.New(rand.NewSource(seed))
	var accepted []string
	refused := 0
	for step := 0; step < steps; step++ {
		switch rng.Intn(3) {
		case 0: // submit 1–3 specs; a repeated size is a result-cache hit
			specs := make([]spec.ScenarioSpec, 1+rng.Intn(3))
			for i := range specs {
				specs[i] = spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 3 + rng.Intn(200)}}
			}
			st, err := svc.SubmitSpecs(specs)
			switch {
			case err == nil:
				accepted = append(accepted, st.ID)
			case strings.Contains(err.Error(), "backlog full"):
				refused++
			default:
				t.Fatalf("step %d: submit: %v", step, err)
			}
		case 1: // cancel a random accepted job still queued or running
			var live []string
			for _, id := range accepted {
				if st, _ := svc.Job(id); st.State == JobQueued || st.State == JobRunning {
					live = append(live, id)
				}
			}
			if len(live) > 0 {
				svc.CancelJob(live[rng.Intn(len(live))])
			}
		case 2: // release one blocked run, if any is blocked
			select {
			case release <- struct{}{}:
			default:
			}
		}
		if m := svc.Snapshot(); m.JobsQueued < 0 || m.JobsRunning < 0 {
			t.Fatalf("step %d: jobs_queued=%d jobs_running=%d", step, m.JobsQueued, m.JobsRunning)
		}
	}
	close(release)
	for _, id := range accepted {
		jb, ok := svc.queue.get(id)
		if !ok {
			t.Fatalf("accepted job %s is gone", id)
		}
		if !jb.waitTerminal(context.Background()) {
			t.Fatalf("accepted job %s never turned terminal", id)
		}
	}
	waitFor(t, "the queue to drain", func() bool {
		m := svc.Snapshot()
		if m.JobsQueued < 0 || m.JobsRunning < 0 {
			t.Fatalf("jobs_queued=%d jobs_running=%d", m.JobsQueued, m.JobsRunning)
		}
		return m.JobsQueued == 0 && m.JobsRunning == 0
	})
	svc.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	st := replayed.State()
	if len(st.Jobs) != len(accepted)+refused {
		t.Errorf("journal holds %d jobs, want %d accepted + %d refused", len(st.Jobs), len(accepted), refused)
	}
	for _, id := range st.Order {
		if !st.Jobs[id].Terminal() {
			t.Errorf("journal holds job %s as unfinished", id)
		}
	}
}
