package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// summarySweepDef is the sweep the summary tests submit: two families ×
// two sizes × one team = 4 specs in 4 groups.
func summarySweepDef() spec.SweepDef {
	return spec.SweepDef{
		Name:     "sum-{family}-n{n}",
		Families: []string{"ring", "path"},
		Sizes:    []int{6, 8},
		Teams:    []spec.Team{{Labels: []int{1, 2}}},
	}
}

func postSweep(t *testing.T, base, query string) SweepAccepted {
	t.Helper()
	body, err := json.Marshal(summarySweepDef())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var acc SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// getSummary long-polls the summary endpoint (it blocks until the job is
// terminal) and decodes the response.
func getSummary(t *testing.T, base, jobID string) (SummaryResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return SummaryResponse{}, resp.StatusCode
	}
	var sr SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr, resp.StatusCode
}

// TestJobSummaryEndpoint proves the summary flow end to end: the first GET
// stores the fold under the sweep's derived key, the repeat GET is a
// summary-cache hit with an identical summary, and a second identical sweep
// submitted as a different job hits the same cache entry on its first GET.
func TestJobSummaryEndpoint(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	acc := postSweep(t, srv.URL, "")
	first, code := getSummary(t, srv.URL, acc.JobID)
	if code != http.StatusOK {
		t.Fatalf("first summary: HTTP %d", code)
	}
	if first.Cached {
		t.Fatal("first summary serve must store, not hit")
	}
	if first.Summary == nil || first.Summary.Total.Runs != 4 {
		t.Fatalf("summary should cover 4 runs: %+v", first.Summary)
	}
	if got := len(first.Summary.Groups()); got != 4 {
		t.Fatalf("expected 4 groups, got %d", got)
	}

	second, _ := getSummary(t, srv.URL, acc.JobID)
	if !second.Cached {
		t.Fatal("repeat summary serve must hit the cache")
	}
	b1, _ := json.Marshal(first.Summary)
	b2, _ := json.Marshal(second.Summary)
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached summary differs from first serve")
	}

	// An identical sweep in a new job shares the derived key: its first
	// summary request is already a cache hit.
	acc2 := postSweep(t, srv.URL, "")
	if acc2.JobID == acc.JobID {
		t.Fatal("expected a fresh job id")
	}
	third, _ := getSummary(t, srv.URL, acc2.JobID)
	if !third.Cached || third.Key != first.Key {
		t.Fatalf("identical sweep should hit the summary cache (cached=%v key match=%v)",
			third.Cached, third.Key == first.Key)
	}

	m := svc.Snapshot()
	if m.SummaryMisses != 1 || m.SummaryHits != 2 {
		t.Fatalf("summary metrics: misses=%d hits=%d, want 1/2", m.SummaryMisses, m.SummaryHits)
	}
}

// TestJobSummaryMatchesLocalFold proves the served summary's deterministic
// core is bit-identical to an in-process agg.Summarize of the same specs —
// the service path (cache, singleflight, job workers) changes nothing. At
// parallelism 1 the job's fold runs on the job worker's goroutine, at 4 on
// a pool of its own.
func TestJobSummaryMatchesLocalFold(t *testing.T) {
	specs, err := summarySweepDef().Specs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := agg.Summarize(sim.NewRunner(sim.WithParallelism(3)), specs)
	if err != nil {
		t.Fatal(err)
	}
	localCanon, err := local.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			svc := New(Config{Parallelism: p})
			defer svc.Close()
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			acc := postSweep(t, srv.URL, "")
			served, code := getSummary(t, srv.URL, acc.JobID)
			if code != http.StatusOK {
				t.Fatalf("summary: HTTP %d", code)
			}
			servedCanon, err := served.Summary.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(servedCanon, localCanon) {
				t.Fatalf("served summary differs from local fold:\n%s\n%s", servedCanon, localCanon)
			}
		})
	}
}

// TestSummaryOnlySweep proves summary-only jobs discard raw rows: /results
// refuses with 409, /summary serves the aggregate, and job status still
// reports per-spec completion.
func TestSummaryOnlySweep(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	acc := postSweep(t, srv.URL, "?summary=only")
	sr, code := getSummary(t, srv.URL, acc.JobID)
	if code != http.StatusOK {
		t.Fatalf("summary: HTTP %d", code)
	}
	if sr.Summary.Total.Runs != 4 || sr.Summary.Total.Gathered != 4 {
		t.Fatalf("summary-only job summary wrong: %+v", sr.Summary.Total)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + acc.JobID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results of a summary-only job: HTTP %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(body), "summary") {
		t.Fatalf("409 body should point at the summary endpoint: %s", body)
	}

	st, ok := svc.Job(acc.JobID)
	if !ok || st.State != JobDone || st.Completed != 4 {
		t.Fatalf("job status: %+v ok=%v", st, ok)
	}
}

// TestSummaryOfUnfinishedJob checks the non-blocking JobSummary accessor
// and the 409 of a failed (canceled) job's summary.
func TestSummaryOfUnfinishedJob(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	if _, found, _ := svc.JobSummary("nope"); found {
		t.Fatal("unknown job must not be found")
	}

	// A canceled-before-start job is terminal without a summary.
	st, err := svc.SubmitSpecs([]spec.ScenarioSpec{{
		Graph: spec.GraphSpec{Family: "ring", N: 64},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 32, Algorithm: spec.Known()},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	svc.CancelJob(st.ID)
	if _, _, err := svc.JobSummary(st.ID); err == nil {
		// The job may have finished before the cancel landed; only a
		// still-failed job must refuse.
		if js, _ := svc.Job(st.ID); js.State == JobFailed {
			t.Fatal("failed job must have no summary")
		}
	}
}

// TestFailedJobSummaryRefusesDespiteCache pins the status contract: a
// failed (canceled) job answers "no summary" even when an identical
// sweep's summary already sits in the cache — the response code reflects
// THIS job's outcome, not the cache's contents.
func TestFailedJobSummaryRefusesDespiteCache(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	specs, err := summarySweepDef().Specs()
	if err != nil {
		t.Fatal(err)
	}
	key, err := SweepSummaryKey(specs)
	if err != nil {
		t.Fatal(err)
	}
	svc.cache.add(key, agg.NewSummary())

	jb := newJob("jx", specs, false)
	jb.finish(JobFailed, "canceled")
	if _, err := svc.summaryOf(jb); err == nil {
		t.Fatal("failed job must refuse its summary even on a cache hit")
	}
	if hits := svc.summaryHits.Value(); hits != 0 {
		t.Fatalf("refusal must not count as a summary hit, got %d", hits)
	}
}

// TestSweepSummaryKeyDerivation checks the key is order-sensitive,
// name-insensitive (it hashes canonical spec encodings) and distinct from
// any single-spec key.
func TestSweepSummaryKeyDerivation(t *testing.T) {
	a := spec.ScenarioSpec{
		Name:  "a",
		Graph: spec.GraphSpec{Family: "ring", N: 6},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 3, Algorithm: spec.Known()},
		},
	}
	b := a
	b.Graph.N = 8

	k1, err := SweepSummaryKey([]spec.ScenarioSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SweepSummaryKey([]spec.ScenarioSpec{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("summary key must depend on spec order")
	}
	renamed := a
	renamed.Name = "renamed"
	k3, err := SweepSummaryKey([]spec.ScenarioSpec{renamed, b})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatal("summary key must ignore spec names")
	}
	single, err := SpecKey(a)
	if err != nil {
		t.Fatal(err)
	}
	oneSpec, err := SweepSummaryKey([]spec.ScenarioSpec{a})
	if err != nil {
		t.Fatal(err)
	}
	if single == oneSpec {
		t.Fatal("summary keys must not collide with run-result keys")
	}
}

// TestSummaryEnvelopeBytes pins the summary endpoint's bytes for jobs whose
// ids need escaping and whose summaries carry group names that do: the
// body is json.NewEncoder's encoding of the SummaryResponse, trailing
// newline included, and ?canonical=1 serves CanonicalJSON alone. The
// envelope writer also matches json.NewEncoder on a nil summary.
func TestSummaryEnvelopeBytes(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ids := []string{"j000042", "odd<&>id", `q"uote\back`, "sep\u2028\u2029", "bad\xffutf8", "ünï", "ctl\x01\t"}
	for i, id := range ids {
		// Distinct specs per job, so each serves its own summary rather
		// than an earlier job's cache entry.
		specs, err := spec.SweepDef{Families: []string{"ring"}, Sizes: []int{6 + i}, Teams: []spec.Team{{Labels: []int{1, 2}}}}.Specs()
		if err != nil {
			t.Fatal(err)
		}
		sum := agg.NewSummary()
		sum.Observe(agg.Key{Family: "<fam&" + id, N: 6 + i, K: 2, Algo: "al\"go\u2028"},
			&sim.RunResult{Rounds: 10 + i, SteppedRounds: 3, Moves: 40}, nil, time.Duration(i+1)*time.Millisecond)
		sum.Observe(agg.Key{Family: "ring", N: 6, K: 2, Algo: "known"}, nil, errors.New("failed run"), time.Microsecond)
		jb := newJob(id, specs, true)
		jb.state = JobDone
		jb.completed = len(specs)
		jb.summary = sum
		jb.dequeued = true
		svc.queue.install(jb)

		get := func(query string) []byte {
			t.Helper()
			resp, err := http.Get(srv.URL + "/v1/jobs/" + url.PathEscape(id) + "/summary" + query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("job %q%s: HTTP %d, Content-Type %q: %s", id, query, resp.StatusCode, resp.Header.Get("Content-Type"), body)
			}
			return body
		}
		first := get("") // stores the summary under its key; later serves hit
		resp, found, err := svc.JobSummary(id)
		if !found || err != nil || !resp.Cached {
			t.Fatalf("job %q: JobSummary found=%v cached=%v err=%v", id, found, resp.Cached, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := get(""); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("job %q: summary body\n%q\nwant json.NewEncoder's\n%q", id, got, want.Bytes())
		}
		resp.Cached = false
		want.Reset()
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, want.Bytes()) {
			t.Errorf("job %q: first summary body\n%q\nwant\n%q", id, first, want.Bytes())
		}
		canon, err := sum.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := get("?canonical=1"); !bytes.Equal(got, canon) {
			t.Errorf("job %q: canonical body\n%q\nwant CanonicalJSON's\n%q", id, got, canon)
		}
	}

	// The handler serves no nil summary, but the envelope writer still
	// writes one as encoding/json does.
	for _, id := range ids {
		resp := SummaryResponse{JobID: id, Key: "k<" + id, Specs: -1, State: JobFailed}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := resp.appendJSON(nil); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("nil summary of job %q:\n%q\nwant json.NewEncoder's\n%q", id, got, want.Bytes())
		}
	}
}
