package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"nochatter/internal/obs"
	"nochatter/internal/sched"
)

// TestMetricsEndpointKeysStable pins the /metrics vocabulary across the
// registry rewrite: every key the hand-assembled Metrics struct used to
// serve must still appear in the registry-snapshot document, with the
// counters carrying the same values the typed Snapshot reports.
func TestMetricsEndpointKeysStable(t *testing.T) {
	svc, srv := newTestServer(t, Config{})

	// Drive some traffic so counters are non-zero and provably live.
	sp := differentialSpecs()[0]
	if _, _, _, err := svc.RunSpec(sp); err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	if _, _, _, err := svc.RunSpec(sp); err != nil { // cache hit
		t.Fatalf("RunSpec: %v", err)
	}

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
			t.Errorf("/metrics lost legacy key %q", key)
		}
	}
	// "scheduler" stays absent on plain workers, exactly as before.
	if _, ok := doc["scheduler"]; ok {
		t.Errorf("/metrics grew a scheduler section on a non-coordinator")
	}
	// The document and the typed snapshot read the same counters.
	m := svc.Snapshot()
	if got := doc["cache_hits"].(float64); int64(got) != m.CacheHits || m.CacheHits != 1 {
		t.Errorf("cache_hits: doc %v, snapshot %d, want 1", got, m.CacheHits)
	}
	if got := doc["specs_executed"].(float64); int64(got) != m.SpecsExecuted {
		t.Errorf("specs_executed: doc %v, snapshot %d", got, m.SpecsExecuted)
	}
	// New registry metrics ride along without displacing anything.
	for _, key := range []string{"job_wall_ms", "spec_run_us"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing registry histogram %q", key)
		}
	}
}

// TestMetricsSchedulerKeyOnCoordinator checks the scheduler section still
// appears (same key, same shape) once SetSchedulerStats is wired.
func TestMetricsSchedulerKeyOnCoordinator(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	svc.SetSchedulerStats(func() sched.FleetStats {
		return sched.FleetStats{Sweeps: 3, Chunks: 12, Workers: []sched.WorkerStats{{Worker: 0, Dispatched: 12, Done: 12}}}
	})
	var doc struct {
		Scheduler *sched.FleetStats `json:"scheduler"`
	}
	getJSON(t, srv.URL+"/metrics", &doc)
	if doc.Scheduler == nil || doc.Scheduler.Sweeps != 3 || len(doc.Scheduler.Workers) != 1 {
		t.Fatalf("scheduler section wrong: %+v", doc.Scheduler)
	}
	if doc.Scheduler.Workers[0].Done != 12 {
		t.Fatalf("scheduler worker done count wrong: %+v", doc.Scheduler.Workers[0])
	}
}

// TestJobTraceEndpoint drives a sweep job and asserts its lifecycle shows
// up on GET /v1/jobs/{id}/trace: queued, then running (carrying queue
// latency), then done.
func TestJobTraceEndpoint(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	st, err := svc.SubmitSpecs(differentialSpecs()[:2])
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The summary endpoint long-polls until the job is terminal.
	getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/summary", nil)

	// The terminal trace event is recorded just after the job terminalizes
	// (the long-poll can win that race), so poll briefly for the third event.
	var tr JobTrace
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr = JobTrace{}
		resp = getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/trace", &tr)
		if len(tr.Events) >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d", resp.StatusCode)
	}
	if tr.Job != st.ID {
		t.Fatalf("trace for job %q, want %q", tr.Job, st.ID)
	}
	var phases []obs.Phase
	for _, ev := range tr.Events {
		phases = append(phases, ev.Phase)
	}
	want := []obs.Phase{obs.PhaseQueued, obs.PhaseRunning, obs.PhaseDone}
	if len(phases) != len(want) {
		t.Fatalf("trace phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("trace phases = %v, want %v", phases, want)
		}
	}

	resp = getJSON(t, srv.URL+"/v1/jobs/zzz/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestFleetEndpoint404OnWorker checks a plain worker refuses /v1/fleet and
// a node with a fleet hook serves whatever it returns.
func TestFleetEndpoint404OnWorker(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp := getJSON(t, srv.URL+"/v1/fleet", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("worker /v1/fleet: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestFleetEndpointServesHook(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	svc.SetFleet(func(ctx context.Context) any {
		return map[string]any{"workers": []string{"w0", "w1"}}
	})
	var doc map[string]json.RawMessage
	resp := getJSON(t, srv.URL+"/v1/fleet", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator /v1/fleet: HTTP %d", resp.StatusCode)
	}
	if _, ok := doc["workers"]; !ok {
		t.Fatalf("fleet document missing workers: %v", doc)
	}
}
