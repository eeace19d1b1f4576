package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"nochatter/internal/agg"
	"nochatter/internal/spec"
)

// summaryDomain separates summary keys from single-run result keys: a
// summary key is the hash of a domain tag plus every spec's canonical
// encoding, so it can never collide with a SpecKey (which hashes a single
// canonical spec with no tag), and bumping the version retires old keys
// when the summary format changes.
const summaryDomain = "nochatter-sweep-summary-v1"

// SweepSummaryKey returns the content address of a sweep's summary: the hex
// SHA-256 of the summary domain tag followed by the canonical encoding of
// every spec in order. Two sweeps with the same specs in the same order
// share a summary key, and because a summary is a deterministic function
// of its specs (DESIGN.md §9), their summaries share every canonical byte.
// The journal keys each fleet chunk's summary by it too.
func SweepSummaryKey(specs []spec.ScenarioSpec) (string, error) {
	h := sha256.New()
	h.Write([]byte(summaryDomain))
	var arr [512]byte
	buf := arr[:0]
	for _, sp := range specs {
		var err error
		if buf, err = appendCanonical(append(buf[:0], '\n'), sp); err != nil {
			return "", err
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SummaryResponse is the wire form of GET /v1/jobs/{id}/summary: the
// sweep's derived summary key and the job's own streaming aggregate.
type SummaryResponse struct {
	JobID   string       `json:"job_id"`
	Key     string       `json:"key"`
	Specs   int          `json:"specs"`
	State   JobState     `json:"state"`
	Summary *agg.Summary `json:"summary"`
}

// appendJSON appends r as json.NewEncoder(w).Encode(r) writes it, trailing
// newline included, with the summary written in one pass
// (agg.Summary.AppendJSON) rather than through encoding/json's reflection
// and its re-scan of the summary's MarshalJSON output.
func (r *SummaryResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = appendString(dst, r.JobID)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, r.Key)
	dst = append(dst, `,"specs":`...)
	dst = strconv.AppendInt(dst, int64(r.Specs), 10)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, string(r.State))
	dst = append(dst, `,"summary":`...)
	if r.Summary == nil {
		dst = append(dst, "null"...)
	} else {
		dst = r.Summary.AppendJSON(dst)
	}
	return append(dst, "}\n"...)
}

// appendString appends s as encoding/json writes a string.
func appendString(dst []byte, s string) []byte {
	enc, _ := json.Marshal(s) // a string always marshals
	return append(dst, enc...)
}

// JobSummary returns the summary of a job without blocking: found reports
// whether the job exists, and a non-nil error means the summary is not (or
// never will be) servable — the job is still running, or failed. The HTTP
// handler instead long-polls until the job is terminal.
func (s *Service) JobSummary(id string) (resp SummaryResponse, found bool, err error) {
	jb, ok := s.queue.get(id)
	if !ok {
		return SummaryResponse{}, false, nil
	}
	if !jb.isTerminal() {
		return SummaryResponse{}, true, fmt.Errorf("service: job %s is not finished", id)
	}
	resp, err = s.summaryOf(jb)
	return resp, true, err
}

// summaryOf serves a terminal job's own summary under the sweep's key.
// Only a job that completed has one: a failed or canceled job refuses.
func (s *Service) summaryOf(jb *job) (SummaryResponse, error) {
	st := jb.status()
	if st.State != JobDone {
		return SummaryResponse{}, fmt.Errorf("service: job %s did not complete (%s); no summary", jb.id, st.State)
	}
	key, err := jb.summaryKey()
	if err != nil {
		return SummaryResponse{}, err
	}
	return SummaryResponse{JobID: jb.id, Key: key, Specs: st.Specs, State: st.State, Summary: jb.summarySnapshot()}, nil
}
