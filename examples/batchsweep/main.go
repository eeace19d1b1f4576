// Batch sweep with streaming summaries: a SweepDef literal declares a
// families × sizes product with two team sizes — no hand-rolled scenario
// loops — and every generated ScenarioSpec is pure data
// (JSON-round-trippable; one is printed below). The whole sweep is then
// folded into a nochatter.Summary AS RESULTS STREAM off the parallel worker
// pool: each worker reduces its own runs (counts, min/max, log-bucket
// histograms) and the per-worker summaries merge at the end, so the raw
// result set is never materialized — the consumption pattern of sweeps too
// large to hold in memory. The summary is bit-identical whatever the
// parallelism.
//
// The printed table groups by the sweep's axes and reports gathering rate
// and p50/p90/p99 of gather rounds, engine-stepped rounds (the difference
// is what the event-driven engine fast-forwarded) and moves. The same table
// comes out of `gathersim -sweep` and, over HTTP, GET /v1/jobs/{id}/summary.
//
// Run with: go run ./examples/batchsweep
package main

import (
	"fmt"
	"os"

	"nochatter"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "batchsweep:", err)
		os.Exit(1)
	}
}

func run() error {
	// Two families × five sizes × two team sizes: twenty scenarios, each a
	// serializable artifact. Agents start spread over the graph (the
	// default team placement) and gather under a known upper bound.
	specs, err := nochatter.SweepDef{
		Families:  []string{"ring", "path"},
		Sizes:     []int{4, 6, 8, 10, 12},
		TeamSizes: []int{2, 3},
		Name:      "sweep-{family}-n{n}-k{k}",
	}.Specs()
	if err != nil {
		return err
	}

	// Every spec is a serializable artifact; dump the first as proof.
	buf, err := specs[0].MarshalIndentJSON()
	if err != nil {
		return err
	}
	fmt.Printf("spec %q as JSON:\n%s\n", specs[0].Name, buf)

	// Fold as you stream: results reduce into the summary the moment a
	// worker finishes them. Nothing is materialized, and running this with
	// parallelism 1 instead of 4 produces the identical summary.
	summary, err := nochatter.Summarize(
		nochatter.NewRunner(nochatter.WithParallelism(4)), specs)
	if err != nil {
		return err
	}
	summary.Table(fmt.Sprintf("sweep summary (%d scenarios)", summary.Total.Runs)).Render(os.Stdout)

	fmt.Printf("\nall gathered: %v; median gather round %.0f, p99 %.0f; median moves %.0f\n",
		summary.Total.Gathered == summary.Total.Runs,
		summary.Total.Rounds.Quantile(0.5),
		summary.Total.Rounds.Quantile(0.99),
		summary.Total.Moves.Quantile(0.5))
	if summary.Total.Errors > 0 {
		return fmt.Errorf("%d scenarios failed", summary.Total.Errors)
	}
	return nil
}
