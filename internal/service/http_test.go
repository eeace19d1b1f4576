package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// wireRunResponse decodes a /v1/run body keeping the result's raw bytes for
// bit-identity comparisons.
type wireRunResponse struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// differentialSpecs is one valid scenario per registered built-in
// algorithm; the completeness guard in TestHTTPDifferential keeps it in
// sync with the registry.
func differentialSpecs() []spec.ScenarioSpec {
	return []spec.ScenarioSpec{
		{Name: "known", Graph: spec.GraphSpec{Family: "ring", N: 6}, Agents: []spec.AgentSpec{
			{Label: 5, Start: 0, Algorithm: spec.Known()},
			{Label: 9, Start: 3, Wake: sim.DormantUntilVisited, Algorithm: spec.Known()},
		}},
		{Name: "gossip", Graph: spec.GraphSpec{Family: "ring", N: 4}, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Gossip("10")},
			{Label: 2, Start: 2, Algorithm: spec.Gossip("1")},
		}},
		{Name: "unknown", Graph: spec.GraphSpec{Family: "two"}, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Unknown(0, 0)},
			{Label: 2, Start: 1, Algorithm: spec.Unknown(0, 0)},
		}},
		{Name: "randomized", Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Randomized(1<<60+3, 0)},
			{Label: 2, Start: 4, Algorithm: spec.Randomized(1<<60+3, 0)},
		}},
		{Name: "baseline", Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Baseline()},
			{Label: 2, Start: 4, Algorithm: spec.Baseline()},
		}},
	}
}

// TestHTTPDifferential proves the HTTP path returns bit-identical results
// to in-process RunBatch for the same specs, across every registered
// algorithm, and that resubmission serves the identical bytes from cache.
func TestHTTPDifferential(t *testing.T) {
	specs := differentialSpecs()
	covered := map[string]bool{}
	for _, sp := range specs {
		covered[sp.Agents[0].Algorithm.Name] = true
	}
	for _, name := range spec.Algorithms() {
		if !covered[name] && !strings.HasPrefix(name, "test-") {
			t.Fatalf("registered algorithm %q has no differential case; add one", name)
		}
	}

	// In-process reference: compile and run the same specs through the
	// plain batch path, then serialize exactly as the service does.
	scs, err := spec.CompileAll(specs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	batch := sim.RunBatch(scs)

	_, srv := newTestServer(t, Config{})
	for i, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			if batch[i].Err != nil {
				t.Fatalf("RunBatch: %v", batch[i].Err)
			}
			want, err := json.Marshal(batch[i].Result)
			if err != nil {
				t.Fatalf("marshal reference: %v", err)
			}
			body, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("marshal spec: %v", err)
			}
			resp, first := postJSON(t, srv.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("first POST: %d %s", resp.StatusCode, first)
			}
			var wire wireRunResponse
			if err := json.Unmarshal(first, &wire); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if wire.Cached {
				t.Errorf("first submission claims cached")
			}
			if !bytes.Equal(bytes.TrimSpace(wire.Result), want) {
				t.Errorf("HTTP result diverges from in-process RunBatch:\nhttp %s\nref  %s", wire.Result, want)
			}

			resp, second := postJSON(t, srv.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("second POST: %d %s", resp.StatusCode, second)
			}
			var wire2 wireRunResponse
			if err := json.Unmarshal(second, &wire2); err != nil {
				t.Fatalf("decode second: %v", err)
			}
			if !wire2.Cached {
				t.Errorf("resubmission not served from cache")
			}
			if !bytes.Equal(wire.Result, wire2.Result) || wire.Key != wire2.Key {
				t.Errorf("cached response body differs from the original")
			}
		})
	}
}

// TestHTTPSweepJob drives the async path end to end: submit a sweep
// definition, observe the job reach done, and stream NDJSON results in
// input order; every result must match its spec's direct in-process run.
func TestHTTPSweepJob(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	def := spec.SweepDef{
		Name:     "sweep-{family}-n{n}",
		Families: []string{"ring", "path"},
		Sizes:    []int{4, 6, 8},
		Teams:    []spec.Team{{Labels: []int{1, 2}}},
	}
	specs, err := def.Specs()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	body, _ := json.Marshal(def)
	resp, accepted := postJSON(t, srv.URL+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, accepted)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(accepted, &acc); err != nil {
		t.Fatalf("decode accepted: %v", err)
	}
	if acc.Specs != len(specs) || acc.JobID == "" {
		t.Fatalf("accepted %+v, want %d specs and a job id", acc, len(specs))
	}

	// Stream the results: the endpoint long-polls, so a single GET follows
	// the job to completion.
	streamResp, err := http.Get(srv.URL + "/v1/jobs/" + acc.JobID + "/results")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	scanner := bufio.NewScanner(streamResp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []JobResult
	for scanner.Scan() {
		var r JobResult
		if err := json.Unmarshal(scanner.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		lines = append(lines, r)
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	if len(lines) != len(specs) {
		t.Fatalf("streamed %d results, want %d", len(lines), len(specs))
	}
	for i, r := range lines {
		if r.Index != i {
			t.Fatalf("result %d carries index %d: stream is out of input order", i, r.Index)
		}
		if r.Error != "" {
			t.Fatalf("result %d (%s): %s", i, r.Name, r.Error)
		}
		if r.Name != specs[i].Name {
			t.Errorf("result %d named %q, want %q", i, r.Name, specs[i].Name)
		}
		ref, err := specs[i].Run()
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		got, _ := json.Marshal(r.Result)
		want, _ := json.Marshal(ref)
		if !bytes.Equal(got, want) {
			t.Errorf("result %d diverges from direct run:\njob %s\nref %s", i, got, want)
		}
	}

	var st JobStatus
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+acc.JobID, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if st.State != JobDone || st.Completed != len(specs) {
		t.Errorf("final status %+v, want done with %d completed", st, len(specs))
	}
}

// TestHTTPJobCancel cancels a queued job: with one worker pinned by a held
// job, the second job must fail as canceled without running any spec.
func TestHTTPJobCancel(t *testing.T) {
	svc, srv := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	real := svc.execute
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		<-release
		return real(sp)
	}
	blocker, err := svc.SubmitSpecs([]spec.ScenarioSpec{{
		Graph: spec.GraphSpec{Family: "ring", N: 6},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 3, Algorithm: spec.Known()},
		},
	}})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	victim, err := svc.SubmitSpecs([]spec.ScenarioSpec{{
		Graph: spec.GraphSpec{Family: "ring", N: 8},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 4, Algorithm: spec.Known()},
		},
	}})
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	resp.Body.Close()
	if st.State != JobFailed || st.Error != "canceled" {
		t.Errorf("canceled queued job reports %+v, want failed/canceled", st)
	}
	close(release)

	// The blocker still completes normally.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := svc.Job(blocker.ID)
		if ok && st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPErrors pins the error contract: malformed JSON 400, valid JSON
// that cannot compile 422, unknown jobs 404, and oversized bodies 413.
func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	if resp, body := postJSON(t, srv.URL+"/v1/run", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: %d %s", resp.StatusCode, body)
	}
	badAlgo, _ := json.Marshal(spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "ring", N: 4},
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{Name: "teleport"}}},
	})
	if resp, body := postJSON(t, srv.URL+"/v1/run", badAlgo); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("uncompilable spec: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/sweeps", []byte(`{"families":["ring"]}`)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("teamless sweep: %d %s", resp.StatusCode, body)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1)...)
	if resp, body := postJSON(t, srv.URL+"/v1/run", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s", resp.StatusCode, body)
	}
}

// TestOutOfRangeGraphParams sends a barbell with a negative tail, which
// the graph generator would panic on, through both run paths. As a sweep
// job with explicit starts (so nothing builds the graph before the job
// runs), the spec's row fails with the family's message and the process
// lives on; on POST /v1/run, the first and the repeated request both
// answer 422 instead of dropping the connection and then hanging on the
// flight the panic never released.
func TestOutOfRangeGraphParams(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	const want = "barbell tail must be >= 0"
	bad := spec.GraphSpec{Family: "barbell", N: 4, Tail: -1}

	body, _ := json.Marshal(spec.SweepDef{
		Graphs: []spec.GraphSpec{bad},
		Teams:  []spec.Team{{Labels: []int{1, 2}, Starts: []int{0, 1}}},
	})
	resp, accepted := postJSON(t, srv.URL+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, accepted)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(accepted, &acc); err != nil {
		t.Fatalf("decode accepted: %v", err)
	}
	streamResp, err := http.Get(srv.URL + "/v1/jobs/" + acc.JobID + "/results")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var row JobResult
	err = json.NewDecoder(streamResp.Body).Decode(&row)
	streamResp.Body.Close()
	if err != nil {
		t.Fatalf("decode result row: %v", err)
	}
	if !strings.Contains(row.Error, want) {
		t.Errorf("result row error %q, want the family's message %q", row.Error, want)
	}
	var st JobStatus
	getJSON(t, srv.URL+"/v1/jobs/"+acc.JobID, &st)
	if st.State != JobDone || st.Completed != 1 {
		t.Errorf("job status %+v, want done with its one spec completed", st)
	}

	body, _ = json.Marshal(spec.ScenarioSpec{
		Graph:  bad,
		Agents: []spec.AgentSpec{{Label: 1, Start: 0}, {Label: 2, Start: 1}},
	})
	client := &http.Client{Timeout: 3 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("run request %d: %v", i, err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, want) {
			t.Errorf("run request %d: %d %q (%v), want 422 with %q", i, resp.StatusCode, e.Error, err, want)
		}
	}
}

// TestHTTPMetricsAndHealth sanity-checks the observability endpoints after
// known traffic.
func TestHTTPMetricsAndHealth(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	var health map[string]bool
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || !health["ok"] {
		t.Fatalf("healthz: %d %v", resp.StatusCode, health)
	}
	body, _ := json.Marshal(differentialSpecs()[0])
	postJSON(t, srv.URL+"/v1/run", body)
	postJSON(t, srv.URL+"/v1/run", body)
	var m Metrics
	if resp := getJSON(t, srv.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if m.RunRequests != 2 || m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Errorf("metrics after miss+hit: %+v", m)
	}
	if m.CacheHitRate != 0.5 || m.CacheEntries != 1 || m.SpecsExecuted != 1 {
		t.Errorf("derived metrics: %+v", m)
	}
	if m.RoundsSimulated <= 0 || m.Requests < 4 {
		t.Errorf("counters not moving: %+v", m)
	}
}
