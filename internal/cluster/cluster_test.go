package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// testSweep expands the differential sweep: 3 families × 6 sizes × 6 wake
// schedules × one 2-agent team = 108 specs, comfortably past the ≥100 the
// acceptance criterion asks for.
func testSweep(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	def := spec.SweepDef{
		Name:      "cluster-{family}-n{n}-w{wake}",
		Families:  []string{"ring", "path", "complete"},
		Sizes:     []int{6, 8, 10, 12, 14, 16},
		TeamSizes: []int{2},
		Wakes:     [][]int{{0, 0}, {0, 7}, {7, 0}, {0, 31}, {31, 0}, {0, 101}},
	}
	specs, err := def.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 100 {
		t.Fatalf("differential sweep has %d specs, want >= 100", len(specs))
	}
	return specs
}

// testSkewedSweep expands a sweep whose per-spec costs span two orders of
// magnitude — cheap small rings next to barbells, whose bridged cliques
// stretch exploration superlinearly — so chunk scheduling, stealing and
// failover are exercised under the cost imbalance they exist for.
func testSkewedSweep(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	def := spec.SweepDef{
		Name:      "skew-{family}-n{n}-w{wake}",
		Families:  []string{"ring", "barbell"},
		Sizes:     []int{6, 10, 16, 24},
		TeamSizes: []int{2},
		Wakes:     [][]int{{0, 0}, {0, 7}, {7, 0}},
	}
	specs, err := def.Specs()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// localCanonical is the single-process ground truth: the whole sweep folded
// in one process, canonically encoded.
func localCanonical(t *testing.T, specs []spec.ScenarioSpec) string {
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

// newBackend boots one in-process gatherd (service core behind a real HTTP
// listener) and returns its base URL.
func newBackend(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv.URL
}

func fastWorker(base string) *Worker {
	return NewWorker(base, WithRetries(1, time.Millisecond))
}

// TestClusterMatchesLocal is the differential acceptance test: the same
// ≥100-spec sweep summarized by a coordinator over 2 and over 3 workers is
// bit-identical (CanonicalJSON) to the single-process summary.
func TestClusterMatchesLocal(t *testing.T) {
	specs := testSweep(t)
	want := localCanonical(t, specs)

	for _, workers := range []int{2, 3} {
		ws := make([]*Worker, workers)
		for i := range ws {
			ws[i] = fastWorker(newBackend(t))
		}
		sum, err := NewCoordinator(ws...).SummarizeSpecs(context.Background(), specs)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		got, err := sum.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%d workers: merged summary differs from the single-process run", workers)
		}
	}
}

// TestClusterFailover kills one worker mid-job — it accepts its shard, then
// drops dead before the summary poll — and asserts the coordinator reroutes
// the shard to a survivor and still produces the bit-identical total.
func TestClusterFailover(t *testing.T) {
	specs := testSweep(t)
	want := localCanonical(t, specs)

	// Two healthy backends plus one that dies after accepting a job: its
	// first summary poll (and everything after, health probes included)
	// answers 503, exactly as a worker crashing between accept and serve
	// looks from the outside.
	svc := service.New(service.Config{})
	defer svc.Close()
	inner := svc.Handler()
	var killed atomic.Bool
	var abandons atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The coordinator's best-effort unwind of the abandoned shard job
		// still reaches the (half-dead) backend; count it.
		if r.Method == http.MethodDelete {
			abandons.Add(1)
			inner.ServeHTTP(w, r)
			return
		}
		if killed.Load() {
			http.Error(w, `{"error":"worker down"}`, http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/summary") {
			killed.Store(true)
			http.Error(w, `{"error":"worker down"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer dying.Close()

	ws := []*Worker{
		fastWorker(newBackend(t)),
		fastWorker(newBackend(t)),
		fastWorker(dying.URL),
	}
	sum, err := NewCoordinator(ws...).SummarizeSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("summarize with one worker dying mid-job: %v", err)
	}
	if !killed.Load() {
		t.Fatal("the dying worker was never exercised; failover path not covered")
	}
	if abandons.Load() == 0 {
		t.Error("the abandoned shard job was never canceled on its backend")
	}
	got, err := sum.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Error("failover run differs from the single-process summary")
	}
}

// TestClusterAllWorkersDown proves a sweep fails with a descriptive error
// once a shard exhausts the fleet, rather than hanging or zero-filling.
func TestClusterAllWorkersDown(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer down.Close()
	ws := []*Worker{fastWorker(down.URL), fastWorker(down.URL)}
	_, err := NewCoordinator(ws...).SummarizeSpecs(context.Background(), testSweep(t)[:4])
	if err == nil || !strings.Contains(err.Error(), "no worker can serve it") {
		t.Fatalf("got %v, want a no-worker-can-serve-it error", err)
	}
}

// TestClusterFewerSpecsThanWorkers covers the empty-shard path: 2 specs
// over 3 workers still merges to the local fold.
func TestClusterFewerSpecsThanWorkers(t *testing.T) {
	specs := testSweep(t)[:2]
	want := localCanonical(t, specs)
	ws := make([]*Worker, 3)
	for i := range ws {
		ws[i] = fastWorker(newBackend(t))
	}
	sum, err := NewCoordinator(ws...).SummarizeSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sum.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Error("2 specs over 3 workers differs from the local fold")
	}
}

// TestClusterContextCancel proves a canceled context aborts the sweep with
// the context's error instead of burning through failover attempts.
func TestClusterContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := []*Worker{fastWorker(newBackend(t))}
	_, err := NewCoordinator(ws...).SummarizeSpecs(ctx, testSweep(t)[:4])
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCoordinatorDaemonEndToEnd exercises the full deployment shape the
// cluster-smoke CI job boots: a front daemon whose distributor fans
// summary-only sweeps out to two worker backends, driven purely over HTTP,
// with the canonical summary body compared byte-for-byte against a
// single-node daemon serving the same sweep.
func TestCoordinatorDaemonEndToEnd(t *testing.T) {
	coordWorkers := []*Worker{fastWorker(newBackend(t)), fastWorker(newBackend(t))}
	front := service.New(service.Config{})
	front.SetDistributor(NewCoordinator(coordWorkers...).SummarizeSpecs)
	frontSrv := httptest.NewServer(front.Handler())
	t.Cleanup(func() { frontSrv.Close(); front.Close() })

	single := newBackend(t)

	def := `{"families":["ring","path"],"sizes":[6,8,10],"teams":[{"labels":[1,2]}]}`
	canonical := func(base string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/sweeps?summary=only", "application/json", strings.NewReader(def))
		if err != nil {
			t.Fatal(err)
		}
		var acc service.SweepAccepted
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resp, err = http.Get(base + "/v1/jobs/" + acc.JobID + "/summary?canonical=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("canonical summary: HTTP %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}

	got, want := canonical(frontSrv.URL), canonical(single)
	if got != want {
		t.Errorf("coordinator daemon body differs from single-node daemon:\n%s\n%s", got, want)
	}
}

// TestClusterRejectedChunkReroutes proves a 4xx rejection — which may be a
// worker-local condition like a full backlog behind the same status a
// deterministic verdict uses — moves the rejected chunk to another worker
// without retrying it on, or retiring, the rejecting one; and that when
// every worker rejects, the sweep fails with the backend's message rather
// than spinning.
func TestClusterRejectedChunkReroutes(t *testing.T) {
	refused := make(chan struct{}) // closed on the first rejection
	var refuseOnce sync.Once
	newRejecter := func(submits *atomic.Int64) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				submits.Add(1)
				refuseOnce.Do(func() { close(refused) })
				http.Error(w, `{"error":"queue backlog full"}`, http.StatusUnprocessableEntity)
				return
			}
			w.WriteHeader(http.StatusOK) // healthz
		}))
		t.Cleanup(srv.Close)
		return srv
	}

	// One rejecting worker plus one healthy: the sweep still completes,
	// bit-identical, with each chunk submitted to the rejecter at most once
	// (no retries of a doomed submission — every rejected chunk lands on
	// the healthy worker, and no chunk is lost).
	specs := testSweep(t)[:8]
	chunks := len(sched.Planner{}.PlanSpecs(specs, 2))
	var submits atomic.Int64
	// The healthy worker could drain both home queues before the
	// rejecter's first claim, so its submissions wait, for at most 5 s,
	// until the rejecter has refused a chunk.
	svc := service.New(service.Config{})
	inner := svc.Handler()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			select {
			case <-refused:
			case <-time.After(5 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { healthy.Close(); svc.Close() })
	ws := []*Worker{fastWorker(newRejecter(&submits).URL), fastWorker(healthy.URL)}
	sum, err := NewCoordinator(ws...).SummarizeSpecs(context.Background(), specs)
	if err != nil {
		t.Fatalf("sweep with one rejecting worker: %v", err)
	}
	if got, want := mustCanonical(t, sum), localCanonical(t, specs); got != want {
		t.Error("rerouted sweep differs from the single-process summary")
	}
	if got := submits.Load(); got < 1 || got > int64(chunks) {
		t.Errorf("rejecting worker saw %d submissions, want between 1 and one per chunk (%d)", got, chunks)
	}

	// Every worker rejecting: the sweep fails with the rejection message.
	var s1, s2 atomic.Int64
	ws = []*Worker{fastWorker(newRejecter(&s1).URL), fastWorker(newRejecter(&s2).URL)}
	_, err = NewCoordinator(ws...).SummarizeSpecs(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "queue backlog full") {
		t.Fatalf("got %v, want the backend's rejection message", err)
	}
}

// TestClusterUnevenCostsMatchesLocal is the scheduler's differential test:
// a sweep whose spec costs are deliberately skewed, summarized over 1, 2,
// 3 and 4 workers — different plans, different stealing patterns,
// different completion orders — always produces the CanonicalJSON bytes of
// the single-process fold.
func TestClusterUnevenCostsMatchesLocal(t *testing.T) {
	specs := testSkewedSweep(t)
	want := localCanonical(t, specs)
	for _, workers := range []int{1, 2, 3, 4} {
		ws := make([]*Worker, workers)
		for i := range ws {
			ws[i] = fastWorker(newBackend(t))
		}
		coord := NewCoordinator(ws...)
		sum, err := coord.SummarizeSpecs(context.Background(), specs)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := mustCanonical(t, sum); got != want {
			t.Errorf("%d workers: merged summary differs from the single-process run", workers)
		}
		stats := coord.Stats()
		if stats.Sweeps != 1 || stats.Chunks == 0 {
			t.Errorf("%d workers: stats = %+v, want 1 sweep and some chunks", workers, stats)
		}
		var dispatched int64
		for _, w := range stats.Workers {
			dispatched += w.Dispatched
		}
		if dispatched != stats.Chunks {
			t.Errorf("%d workers: per-worker dispatches sum to %d, fleet counted %d chunks", workers, dispatched, stats.Chunks)
		}
	}
}

// TestClusterStragglerSteals pairs a healthy backend with one that crawls
// (every submission stalls before being served) and proves the healthy
// worker steals the straggler's queued chunks — the fleet is not held to
// the pace of its slowest member — while the merged bytes stay identical
// to the local fold.
func TestClusterStragglerSteals(t *testing.T) {
	specs := testSweep(t)[:24]
	want := localCanonical(t, specs)

	svc := service.New(service.Config{})
	defer svc.Close()
	inner := svc.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(80 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()

	ws := []*Worker{fastWorker(slow.URL), fastWorker(newBackend(t))}
	coord := NewCoordinator(ws...)
	sum, err := coord.SummarizeSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCanonical(t, sum); got != want {
		t.Error("straggler run differs from the single-process summary")
	}
	stats := coord.Stats()
	straggler, fast := stats.Workers[0], stats.Workers[1]
	if fast.Dispatched <= straggler.Dispatched {
		t.Errorf("fast worker ran %d chunks vs straggler's %d; stealing had no effect", fast.Dispatched, straggler.Dispatched)
	}
	if fast.Stolen == 0 {
		t.Errorf("fast worker stole no chunks from the straggler's queue: %+v", stats.Workers)
	}
}

// TestClusterOneChunkPerWorkerMatchesLocal pins the coarsest plan
// (gatherd -chunks 1): one cost-balanced chunk per worker still merges to
// the local fold.
func TestClusterOneChunkPerWorkerMatchesLocal(t *testing.T) {
	specs := testSweep(t)[:12]
	want := localCanonical(t, specs)
	ws := []*Worker{fastWorker(newBackend(t)), fastWorker(newBackend(t))}
	coord := NewCoordinator(ws...)
	coord.SetPlanner(sched.Planner{ChunksPerWorker: 1})
	sum, err := coord.SummarizeSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCanonical(t, sum); got != want {
		t.Error("one-chunk-per-worker run differs from the single-process summary")
	}
	stats := coord.Stats()
	if stats.Chunks != 2 {
		t.Errorf("one chunk per worker over 2 workers dispatched %d chunks, want 2", stats.Chunks)
	}
}

// mustCanonical encodes a summary canonically or fails the test.
func mustCanonical(t *testing.T, s *agg.Summary) string {
	t.Helper()
	buf, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestWorkerCancel covers the cancel client: canceling a live job answers
// OK, canceling an unknown job is a deterministic rejection (404).
func TestWorkerCancel(t *testing.T) {
	w := fastWorker(newBackend(t))
	id, err := w.SubmitSummaryOnly(context.Background(), testSweep(t)[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cancel(context.Background(), id); err != nil {
		t.Fatalf("cancel live job: %v", err)
	}
	var rejected *RejectedError
	if err := w.Cancel(context.Background(), "j999999"); !errors.As(err, &rejected) || rejected.Status != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %v, want a 404 RejectedError", err)
	}
}
