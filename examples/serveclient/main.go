// Serveclient drives the gatherd HTTP API as a client: it submits a sweep
// definition as an async job, follows the NDJSON result stream in input
// order, fetches the sweep's streaming summary (GET /v1/jobs/{id}/summary —
// one aggregate document with grouped percentiles instead of a row per
// scenario), resubmits the same sweep summary=only to show that a second
// job folds the same summary under the same key, and finally demonstrates the
// content-addressed result cache by running one spec twice ("cached":
// false, then true).
//
// By default it spins up the service in-process on a loopback listener, so
// the example is self-contained:
//
//	go run ./examples/serveclient
//
// Point it at a running daemon instead with -addr:
//
//	go run ./cmd/gatherd &
//	go run ./examples/serveclient -addr http://localhost:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"nochatter"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serveclient:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "gatherd base URL (empty = start the service in-process)")
	flag.Parse()

	base := *addr
	if base == "" {
		svc := nochatter.NewService(nochatter.ServiceConfig{})
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		base = srv.URL
		fmt.Printf("started in-process service at %s\n\n", base)
	}

	// A sweep as data: two families × three sizes × one team, named per
	// spec. This same JSON document works against any gatherd.
	def := nochatter.SweepDef{
		Name:     "serve-{family}-n{n}",
		Families: []string{"ring", "torus"},
		Sizes:    []int{9, 12, 16},
		Teams:    []nochatter.SweepTeam{{Labels: []int{2, 7}}},
	}
	body, err := json.Marshal(def)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var acc nochatter.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submitting sweep: HTTP %d", resp.StatusCode)
	}
	fmt.Printf("job %s accepted: %d specs, state %s\n", acc.JobID, acc.Specs, acc.State)

	// Stream results: the endpoint delivers NDJSON lines in input order as
	// soon as each next-in-order result exists, following the running job.
	stream, err := http.Get(base + "/v1/jobs/" + acc.JobID + "/results")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	scanner := bufio.NewScanner(stream.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		var r nochatter.JobResult
		if err := json.Unmarshal(scanner.Bytes(), &r); err != nil {
			return fmt.Errorf("bad result line: %w", err)
		}
		if r.Error != "" {
			fmt.Printf("  %-18s ERROR %s\n", r.Name, r.Error)
			continue
		}
		fmt.Printf("  %-18s gathered=%v rounds=%-8d stepped=%-6d cached=%v\n",
			r.Name, r.Result.AllHaltedTogether(), r.Result.Rounds, r.Result.SteppedRounds, r.Cached)
	}
	if err := scanner.Err(); err != nil {
		return err
	}

	// The whole sweep as one document: the summary endpoint serves the
	// streaming aggregate — grouped counts and p50/p90/p99 of rounds,
	// stepped rounds and moves — folded while the job ran. No raw rows
	// needed to learn a percentile.
	var sum nochatter.SummaryResponse
	resp, err = http.Get(base + "/v1/jobs/" + acc.JobID + "/summary")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\nsummary: %d runs, %d gathered, median gather round %.0f\n",
		sum.Summary.Total.Runs, sum.Summary.Total.Gathered,
		sum.Summary.Total.Rounds.Quantile(0.5))
	for _, g := range sum.Summary.Groups() {
		fmt.Printf("  %-7s n=%-3d rounds p50 %-8.0f p99 %-8.0f moves p50 %.0f\n",
			g.Family, g.N, g.Rounds.Quantile(0.5), g.Rounds.Quantile(0.99), g.Moves.Quantile(0.5))
	}

	// The same sweep submitted summary=only: the job retains no raw rows
	// at all (its results endpoint answers 409). Its runs are result-cache
	// hits, and because a summary is a deterministic function of its specs,
	// this second job folds the same summary under the same key — a
	// content address derived from the specs.
	resp, err = http.Post(base+"/v1/sweeps?summary=only", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var acc2 nochatter.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc2)
	resp.Body.Close()
	if err != nil {
		return err
	}
	resp, err = http.Get(base + "/v1/jobs/" + acc2.JobID + "/summary")
	if err != nil {
		return err
	}
	var sum2 nochatter.SummaryResponse
	err = json.NewDecoder(resp.Body).Decode(&sum2)
	resp.Body.Close()
	if err != nil {
		return err
	}
	c1, err := sum.Summary.CanonicalJSON()
	if err != nil {
		return err
	}
	c2, err := sum2.Summary.CanonicalJSON()
	if err != nil {
		return err
	}
	fmt.Printf("summary-only resubmission %s: same key=%v, same canonical summary=%v\n",
		acc2.JobID, sum2.Key == sum.Key, bytes.Equal(c1, c2))

	// The cache in action: the same spec twice. Identical specs are pure
	// functions of their canonical JSON, so the second run is an O(1)
	// lookup — "cached": true, bit-identical result.
	sp := nochatter.ScenarioSpec{
		Graph: nochatter.GraphSpec{Family: "ring", N: 16},
		Agents: []nochatter.SpecAgent{
			{Label: 21, Start: 0, Algorithm: nochatter.KnownAlgorithm()},
			{Label: 35, Start: 8, Algorithm: nochatter.KnownAlgorithm()},
		},
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	fmt.Println()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(specJSON))
		if err != nil {
			return err
		}
		var rr nochatter.RunResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("run: HTTP %d", resp.StatusCode)
		}
		fmt.Printf("run %d: key %s... cached=%v rounds=%d\n", i+1, rr.Key[:12], rr.Cached, rr.Result.Rounds)
	}

	var m nochatter.ServiceMetrics
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\nmetrics: %d run requests, hit rate %.2f, %d rounds simulated (%.0f rounds/s)\n",
		m.RunRequests, m.CacheHitRate, m.RoundsSimulated, m.RoundsPerSecond)
	return nil
}
