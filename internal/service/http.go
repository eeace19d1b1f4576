package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nochatter/internal/obs"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// maxBodyBytes bounds request bodies: specs and sweep definitions are small
// JSON documents; anything larger is abuse, not traffic.
const maxBodyBytes = 4 << 20

// RunResponse is the wire form of POST /v1/run: the spec's content address,
// whether the result was served without a fresh engine run, and the run
// result itself. Result bytes are json.Marshal of the same *sim.RunResult
// an in-process sim.Run returns, so HTTP results are bit-identical to
// local ones (see the differential test).
type RunResponse struct {
	Key    string         `json:"key"`
	Cached bool           `json:"cached"`
	Result *sim.RunResult `json:"result"`
}

// SweepAccepted is the wire form of POST /v1/sweeps: the job to poll.
type SweepAccepted struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	Specs int      `json:"specs"`
}

// errorResponse is the uniform error body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gatherd HTTP API:
//
//	POST   /v1/run               run one spec synchronously, cache-aware
//	POST   /v1/sweeps            submit a sweep definition as an async job
//	                             (?summary=only discards raw result rows)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/results job results, NDJSON, input order, streamed
//	GET    /v1/jobs/{id}/summary streaming aggregate of the whole sweep
//	                             (?canonical=1: canonical encoding alone)
//	GET    /v1/jobs/{id}/trace   lifecycle trace: job + chunk events, JSON
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/fleet             fleet status (coordinators only; 404 else)
//	GET    /healthz              liveness
//	GET    /metrics              service metrics: one registry snapshot, JSON
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("GET /v1/jobs/{id}/summary", s.handleJobSummary)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is out; nothing sane to do on error
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// handleRun runs one spec synchronously. Malformed JSON is 400; a spec that
// fails to compile or run (unknown algorithm, invalid scenario, max-rounds
// exceeded) is 422 — the request was well-formed, the scenario is not
// servable.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, res, cached, err := s.RunSpec(sp)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Key: key, Cached: cached, Result: res})
}

// handleSweeps expands a sweep definition and enqueues it as a job.
// ?summary=only selects summary-only mode: the job folds results into its
// streaming aggregate and discards the raw rows, so consumers that only
// want percentiles never ship (or store) a row per scenario.
func (s *Service) handleSweeps(w http.ResponseWriter, r *http.Request) {
	summaryOnly := false
	switch v := r.URL.Query().Get("summary"); v {
	case "", "keep":
	case "only":
		summaryOnly = true
	default:
		writeError(w, http.StatusBadRequest, "unknown summary mode %q (use summary=only)", v)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	def, err := spec.ParseSweepDef(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	submit := s.SubmitSweep
	if summaryOnly {
		submit = s.SubmitSweepSummaryOnly
	}
	st, err := submit(def)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SweepAccepted{JobID: st.ID, State: st.State, Specs: st.Specs})
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResults streams the job's results as NDJSON in input order,
// following a still-running job live: each line is written (and flushed) as
// soon as the next in-order result exists, long-poll style, until the job
// is terminal or the client goes away.
func (s *Service) handleJobResults(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if jb.summaryOnly {
		writeError(w, http.StatusConflict,
			"job %s was submitted summary=only and retains no raw results; GET /v1/jobs/%s/summary",
			jb.id, jb.id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		res, ok := jb.waitResult(r.Context(), i)
		if !ok {
			return // terminal with no further results, or client gone
		}
		if err := enc.Encode(res); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleJobSummary serves the sweep's streaming aggregate. It long-polls:
// a request against a still-running job blocks until the job is terminal
// (or the client goes away), then serves the summary the job folded. A
// failed or canceled job has no summary and answers 409.
//
// The body is the SummaryResponse as json.NewEncoder would write it,
// trailing newline included, written in one pass. ?canonical=1 serves the
// summary's canonical encoding alone — no response envelope (job id, key)
// and wall time zeroed — so the bodies of two runs of the same
// sweep compare byte-identical across any deployment shape: one process,
// one daemon, or a coordinator fanning out to a worker fleet (the
// cluster-smoke CI job does exactly that).
func (s *Service) handleJobSummary(w http.ResponseWriter, r *http.Request) {
	canonical := false
	switch v := r.URL.Query().Get("canonical"); v {
	case "", "0":
	case "1":
		canonical = true
	default:
		writeError(w, http.StatusBadRequest, "unknown canonical mode %q (use canonical=1)", v)
		return
	}
	jb, ok := s.queue.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if !jb.waitTerminal(r.Context()) {
		return // client gone before the job finished
	}
	resp, err := s.summaryOf(jb)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	buf := make([]byte, 0, 8<<10) // a few groups' summary without regrowth
	if canonical {
		buf = resp.Summary.AppendCanonicalJSON(buf)
	} else {
		buf = resp.appendJSON(buf)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// JobTrace is the wire form of GET /v1/jobs/{id}/trace: the job's
// lifecycle events — submission, start, chunk dispatch/steal/retry/merge
// on distributed jobs, completion — oldest first. The trace ring holds
// obs.DefaultTraceEvents events, so a long-lived daemon's early events age
// out; Seq gaps mark eviction. Traces are reporting-only wall-clock data
// and never part of any canonical encoding.
type JobTrace struct {
	Job    string      `json:"job"`
	Events []obs.Event `json:"events"`
}

func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events := s.tracer.Job(id)
	if _, ok := s.queue.get(id); !ok && len(events) == 0 {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if events == nil {
		events = []obs.Event{} // a known job always serves an array
	}
	writeJSON(w, http.StatusOK, JobTrace{Job: id, Events: events})
}

// handleFleet serves the coordinator's fleet status. Plain workers have no
// fleet and answer 404, which is also how a client tells the two node
// roles apart.
func (s *Service) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, "this node does not coordinate a fleet")
		return
	}
	writeJSON(w, http.StatusOK, s.fleet(r.Context()))
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleMetrics serves the registry snapshot — every counter, gauge and
// histogram under its stable key, replacing the hand-assembled Metrics
// struct this endpoint used to marshal (the struct remains the in-process
// Snapshot API; the keys coincide).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg)
}
