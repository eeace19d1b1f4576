// Package service turns the simulator into a servable system: a
// content-addressed result cache over canonical spec hashes, an async job
// queue for sweeps, and the HTTP API cmd/gatherd exposes.
//
// The whole design leans on one property PR 2 established: a
// spec.ScenarioSpec is pure data and its run is a deterministic function of
// that data. Hash the spec canonically (this file, over the one-pass
// encoder spec.ScenarioSpec.AppendCanonical) and identical submissions —
// whatever their field order, number spelling or name — map to the same
// key, so repeat traffic is an O(1) cache lookup and N concurrent
// identical submissions collapse into one run (cache.go,
// service.go). Sweeps ride the same path: a job (queue.go) is just an
// ordered list of specs, each served through the cache.
//
// Aggregates ride it too (summary.go): every job folds its results into a
// streaming internal/agg summary as it runs and serves that fold under a
// key derived from its specs (SweepSummaryKey) — a summary is a
// deterministic function of the specs, so identical sweeps share key and
// canonical bytes. GET /v1/jobs/{id}/summary serves it, and
// POST /v1/sweeps?summary=only runs sweeps that never retain a raw row at
// all. See DESIGN.md §9.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"nochatter/internal/spec"
)

// CanonicalSpec returns the canonical JSON encoding of a scenario spec: the
// cache key material. Canonicalization makes the encoding a function of the
// scenario's *semantics* rather than its spelling:
//
//   - Name is stripped — it labels the run but never affects it, so
//     "my-ring" and "" must share a cache entry;
//   - object keys are emitted sorted, so Go struct order and hand-written
//     JSON order agree;
//   - numbers are normalized (integers in decimal form, 1.0 ≡ 1, floats in
//     shortest round-trip form), so a Go-built spec with int params and the
//     same spec re-parsed from JSON (json.Number) hash identically;
//   - no insignificant whitespace.
//
// The encoder is spec.ScenarioSpec.AppendCanonical, which writes the
// struct's fields in one pass.
func CanonicalSpec(sp spec.ScenarioSpec) ([]byte, error) {
	return appendCanonical(nil, sp)
}

// SpecKey returns the content address of a spec: the hex SHA-256 of its
// canonical JSON encoding. Equal keys mean equal runs (given a stable
// algorithm and graph-family registry — see DESIGN.md §8).
func SpecKey(sp spec.ScenarioSpec) (string, error) {
	var buf [512]byte
	canon, err := appendCanonical(buf[:0], sp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// appendCanonical appends sp's canonical encoding to dst, wrapping the
// encoder's error as every key function reports it.
func appendCanonical(dst []byte, sp spec.ScenarioSpec) ([]byte, error) {
	dst, err := sp.AppendCanonical(dst)
	if err != nil {
		return nil, fmt.Errorf("service: canonicalize: %w", err)
	}
	return dst, nil
}
