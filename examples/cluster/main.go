// Cluster boots a two-worker gatherd fleet plus a coordinator — all
// in-process, so the example is self-contained — and runs one sweep three
// ways: locally in this process, scheduled across the fleet through the
// coordinator API, and through a coordinator daemon's HTTP front door. The
// point of the demo is the determinism law that makes the fleet trivial to
// operate: all three summaries are bit-identical (CanonicalJSON), because
// the chunk plan is a pure function of the spec list and summary folding
// is associative and commutative, so scheduling, stealing and failover
// cannot change the answer. It exits non-zero when either fleet summary's
// canonical bytes differ from the local fold.
//
//	go run ./examples/cluster
//
// The fleet API lives in internal/cluster and internal/sched, which this
// example imports directly, as cmd/gatherd does. Against real daemons the
// same code is just cluster.NewWorker(url) per backend; the daemons
// themselves would be `gatherd -addr :8081`, `gatherd -addr :8082`, and a
// coordinator
// `gatherd -addr :8080 -workers http://localhost:8081,http://localhost:8082`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"nochatter"
	"nochatter/internal/cluster"
	"nochatter/internal/sched"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

// bootWorker starts one in-process gatherd backend and returns its client.
func bootWorker(cleanup *[]func()) *cluster.Worker {
	svc := nochatter.NewService(nochatter.ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	*cleanup = append(*cleanup, srv.Close, svc.Close)
	return cluster.NewWorker(srv.URL)
}

func run() error {
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()

	// The sweep: 2 families × 4 sizes × 3 wake schedules × one team = 24
	// scenarios, as one serializable document.
	def := nochatter.SweepDef{
		Name:     "cluster-{family}-n{n}-w{wake}",
		Families: []string{"ring", "torus"},
		Sizes:    []int{9, 12, 16, 20},
		Teams:    []nochatter.SweepTeam{{Labels: []int{2, 7}}},
		Wakes:    [][]int{{0, 0}, {0, 9}, {9, 0}},
	}
	expanded, err := def.Specs()
	if err != nil {
		return err
	}

	// Ground truth: the whole sweep folded in this process.
	local, err := nochatter.Summarize(nochatter.NewRunner(), expanded)
	if err != nil {
		return err
	}
	localCanon, err := local.CanonicalJSON()
	if err != nil {
		return err
	}
	fmt.Printf("local fold:         %d runs, %d gathered, median gather round %.0f\n",
		local.Total.Runs, local.Total.Gathered, local.Total.Rounds.Quantile(0.5))

	// A two-worker fleet behind a coordinator. The chunk plan is a pure
	// function of the spec list and the scheduler configuration — the same
	// sweep always plans identically, and the cost model gives expensive
	// specs smaller chunks so idle workers can steal around them.
	plan := sched.Planner{}.PlanSpecs(expanded, 2)
	fmt.Printf("chunk plan:         %d specs → %d cost-balanced chunks for 2 workers\n",
		len(expanded), len(plan))
	for _, c := range plan[:3] {
		fmt.Printf("  chunk %d: specs [%d,%d), predicted cost %d\n", c.Index, c.Lo, c.Hi, c.Cost)
	}
	fmt.Printf("  ... (%d more)\n", len(plan)-3)

	w1, w2 := bootWorker(&cleanup), bootWorker(&cleanup)
	coord := cluster.NewCoordinator(w1, w2)
	merged, err := coord.SummarizeSpecs(context.Background(), expanded)
	if err != nil {
		return err
	}
	mergedCanon, err := merged.CanonicalJSON()
	if err != nil {
		return err
	}
	fmt.Printf("2-worker cluster:   %d runs, bit-identical to local: %v\n",
		merged.Total.Runs, bytes.Equal(mergedCanon, localCanon))
	if !bytes.Equal(mergedCanon, localCanon) {
		return fmt.Errorf("2-worker cluster summary differs from the local fold")
	}
	for _, ws := range coord.Stats().Workers {
		fmt.Printf("  worker %d: %d chunks dispatched (%d stolen, %d retried)\n",
			ws.Worker, ws.Dispatched, ws.Stolen, ws.Retried)
	}

	// The same fan-out behind a daemon's front door: a coordinator service
	// whose summary-only sweeps are distributed to the fleet — what
	// `gatherd -workers ...` serves.
	front := nochatter.NewService(nochatter.ServiceConfig{})
	front.SetDistributor(coord.SummarizeSpecs)
	front.SetSchedulerStats(coord.Stats) // /metrics "scheduler" key
	frontSrv := httptest.NewServer(front.Handler())
	cleanup = append(cleanup, frontSrv.Close, front.Close)

	body, err := json.Marshal(def)
	if err != nil {
		return err
	}
	resp, err := http.Post(frontSrv.URL+"/v1/sweeps?summary=only", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var acc nochatter.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil {
		return err
	}
	resp, err = http.Get(frontSrv.URL + "/v1/jobs/" + acc.JobID + "/summary?canonical=1")
	if err != nil {
		return err
	}
	httpCanon, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator daemon summary: HTTP %d: %s", resp.StatusCode, httpCanon)
	}
	fmt.Printf("coordinator daemon: job %s, bit-identical to local: %v\n",
		acc.JobID, bytes.Equal(httpCanon, localCanon))
	if !bytes.Equal(httpCanon, localCanon) {
		return fmt.Errorf("coordinator daemon summary differs from the local fold")
	}

	// Per-group view, identical whichever path produced it.
	fmt.Println()
	for _, g := range merged.Groups() {
		fmt.Printf("  %-7s n=%-3d runs %-3d rounds p50 %-8.0f p99 %.0f\n",
			g.Family, g.N, g.Runs, g.Rounds.Quantile(0.5), g.Rounds.Quantile(0.99))
	}
	return nil
}
