package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"nochatter/internal/agg"
	"nochatter/internal/journal"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// journaledService builds a service with a journal opened on dir attached
// and registered on its metrics registry.
func journaledService(t *testing.T, dir string, cfg Config) (*Service, *journal.Journal) {
	t.Helper()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	svc := New(cfg)
	svc.SetJournal(jnl)
	jnl.SetObs(svc.Registry())
	return svc, jnl
}

func canonicalOf(t *testing.T, specs []spec.ScenarioSpec) string {
	t.Helper()
	sum, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sum.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestResumeJournalReRunsInterruptedJob is the local-execution half of the
// kill/resume story: a job whose acceptance reached the journal but whose
// completion never did (the journal freezes mid-run, SIGKILL's view of the
// log) is re-admitted by ResumeJournal under its original id, re-runs, and
// serves the same canonical summary a never-interrupted run would — and
// the resume is invisible to the submission metrics.
func TestResumeJournalReRunsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	specs := differentialSpecs()
	want := canonicalOf(t, specs)

	svc, jnl := journaledService(t, dir, Config{Workers: 1})
	var startOnce sync.Once
	started := make(chan struct{})
	block := make(chan struct{})
	svc.SetExecutor(func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		startOnce.Do(func() { close(started) })
		<-block
		return nil, errors.New("killed mid-run")
	})
	st, err := svc.submitSpecs(specs, true)
	if err != nil {
		t.Fatal(err)
	}
	<-started    // the job is running: acceptance journaled, completion not
	jnl.Freeze() // the crash instant
	close(block)
	jb, _ := svc.queue.get(st.ID)
	jb.waitTerminal(context.Background())
	svc.Close()
	_ = jnl.Close()

	// Restart with the real executor.
	svc2, jnl2 := journaledService(t, dir, Config{Workers: 1})
	defer func() { svc2.Close(); jnl2.Close() }()
	n, err := svc2.ResumeJournal()
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	jb2, ok := svc2.queue.get(st.ID)
	if !ok {
		t.Fatalf("job %s not re-admitted", st.ID)
	}
	if !jb2.waitTerminal(context.Background()) {
		t.Fatal("resumed job never terminalized")
	}
	resp, found, err := svc2.JobSummary(st.ID)
	if err != nil || !found {
		t.Fatalf("JobSummary after resume: found=%v err=%v", found, err)
	}
	buf, err := resp.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != want {
		t.Fatal("resumed job's canonical summary diverged from an uninterrupted run")
	}

	// The double-count regression: the resumed job is not a new submission,
	// and the queued-depth gauge must drain back to zero.
	if sj := svc2.Registry().Counter("sweep_jobs").Value(); sj != 0 {
		t.Fatalf("sweep_jobs = %d after resume, want 0", sj)
	}
	if jr := svc2.Registry().Counter("jobs_resumed").Value(); jr != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", jr)
	}
	if queued, _ := svc2.queue.depth(); queued != 0 {
		t.Fatalf("jobs_queued = %d after the resumed job finished, want 0", queued)
	}

	// Fresh submissions must not collide with the resurrected id.
	st3, err := svc2.submitSpecs(specs[:1], false)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st.ID {
		t.Fatalf("fresh submission reused the resumed job's id %s", st.ID)
	}
}

// TestResumeRestoresTerminalJob pins the summary store surviving restarts:
// a cleanly-finished job comes back from the journal terminal and
// servable, without being counted as resumed (nothing re-ran).
func TestResumeRestoresTerminalJob(t *testing.T) {
	dir := t.TempDir()
	specs := differentialSpecs()
	want := canonicalOf(t, specs)

	svc, jnl := journaledService(t, dir, Config{Workers: 1})
	st, err := svc.submitSpecs(specs, true)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := svc.queue.get(st.ID)
	jb.waitTerminal(context.Background())
	svc.Close()
	_ = jnl.Close()

	svc2, jnl2 := journaledService(t, dir, Config{Workers: 1})
	defer func() { svc2.Close(); jnl2.Close() }()
	n, err := svc2.ResumeJournal()
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if n != 0 {
		t.Fatalf("resumed %d jobs, want 0 (the job finished before the restart)", n)
	}
	got, ok := svc2.Job(st.ID)
	if !ok || got.State != JobDone || got.Completed != len(specs) {
		t.Fatalf("restored job = %+v, %v; want done with %d completed", got, ok, len(specs))
	}
	resp, found, err := svc2.JobSummary(st.ID)
	if err != nil || !found {
		t.Fatalf("restored JobSummary: found=%v err=%v", found, err)
	}
	buf, err := resp.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != want {
		t.Fatal("restored summary diverged from the original")
	}
	// Raw rows never survive a restart: the restored job serves like a
	// summary-only one.
	jb2, _ := svc2.queue.get(st.ID)
	if jb2.results != nil {
		t.Fatal("restored job grew raw result rows out of a journal that never stores them")
	}
}

// TestMetricsCompatAfterResume re-pins the PR 8 /metrics vocabulary on a
// journaled, resumed daemon: every legacy key survives, and the journal's
// own metrics ride along without displacing anything.
func TestMetricsCompatAfterResume(t *testing.T) {
	dir := t.TempDir()
	specs := differentialSpecs()

	svc, jnl := journaledService(t, dir, Config{Workers: 1})
	st, err := svc.submitSpecs(specs[:2], true)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := svc.queue.get(st.ID)
	jb.waitTerminal(context.Background())
	svc.Close()
	_ = jnl.Close()

	svc2, jnl2 := journaledService(t, dir, Config{Workers: 1})
	if _, err := svc2.ResumeJournal(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() { srv.Close(); svc2.Close(); jnl2.Close() })

	var doc map[string]any
	resp := getJSON(t, srv.URL+"/metrics", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	legacy := []string{
		"requests", "run_requests", "cache_hits", "cache_misses", "coalesced",
		"cache_hit_rate", "cache_entries", "sweep_jobs", "jobs_queued",
		"jobs_running", "specs_executed", "rounds_simulated", "stepped_rounds",
		"uptime_seconds", "rounds_per_second",
	}
	for _, key := range legacy {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics lost legacy key %q on a journaled daemon", key)
		}
	}
	for _, key := range []string{"journal_records", "jobs_resumed", "resume_ms"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing journal key %q", key)
		}
	}
	if jr := doc["journal_records"].(float64); jr == 0 {
		t.Error("journal_records = 0 on a journal that replayed records")
	}
	if sj := doc["sweep_jobs"].(float64); sj != 0 {
		t.Errorf("sweep_jobs = %v after restore-only resume, want 0", sj)
	}
}

// TestTerminalRecordPrecedesTerminalState pins the order of a job's end: a
// job turns terminal only once its terminal record is in the journal, so a
// client that sees a job done, or reads its summary, cannot see it re-run
// after a crash. Jobs run one at a time on the local and the distributed
// path; whenever a waiter sees a job terminal, the journal must already
// hold both of its records, acceptance and terminal.
func TestTerminalRecordPrecedesTerminalState(t *testing.T) {
	svc, jnl := journaledService(t, t.TempDir(), Config{})
	defer func() {
		svc.Close()
		_ = jnl.Close()
	}()
	svc.SetDistributor(func(_ context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error) {
		return agg.Summarize(sim.NewRunner(), specs)
	})
	specs := differentialSpecs()[:1]
	for _, summaryOnly := range []bool{false, true} {
		for i := 0; i < 200; i++ {
			before := jnl.Records()
			st, err := svc.submitSpecs(specs, summaryOnly)
			if err != nil {
				t.Fatal(err)
			}
			jb, ok := svc.queue.get(st.ID)
			if !ok || !jb.waitTerminal(context.Background()) {
				t.Fatalf("job %s never turned terminal", st.ID)
			}
			if got := jnl.Records() - before; got != 2 {
				t.Fatalf("summaryOnly=%v job %d: the journal holds %d of its 2 records once the job is terminal", summaryOnly, i, got)
			}
		}
	}
}

// TestQueuedCancelJournalsTerminalRecordFirst pins the same order for a
// job canceled while queued, which never reaches a job worker: its
// terminal record must be in the journal before anyone can see it failed.
// The one job worker is held by a blocked job while 3,000 queued jobs are
// canceled, each with a waiter blocked on its end.
func TestQueuedCancelJournalsTerminalRecordFirst(t *testing.T) {
	const cancels = 3000
	svc, jnl := journaledService(t, t.TempDir(), Config{Workers: 1, Backlog: 4096})
	release := make(chan struct{})
	svc.SetExecutor(func(spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return nil, errors.New("released")
	})
	defer func() {
		close(release)
		svc.Close()
		_ = jnl.Close()
	}()
	specs := differentialSpecs()[:1]
	if _, err := svc.SubmitSpecs(specs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocking job running", func() bool { return svc.Snapshot().JobsRunning == 1 })
	early := 0
	for i := 0; i < cancels; i++ {
		st, err := svc.SubmitSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		jb, ok := svc.queue.get(st.ID)
		if !ok {
			t.Fatalf("job %s not found", st.ID)
		}
		before := jnl.Records()
		seen := make(chan int64)
		go func() {
			jb.waitTerminal(context.Background())
			seen <- jnl.Records()
		}()
		if st, _ := svc.CancelJob(st.ID); st.State != JobFailed {
			t.Fatalf("queued job %s after cancel: %+v", st.ID, st)
		}
		if <-seen == before {
			early++
		}
	}
	if early > 0 {
		t.Fatalf("%d of %d queued jobs were seen canceled before their terminal record was journaled", early, cancels)
	}
}
