// Command gathersim runs one gathering scenario — or a whole sweep — and
// reports the outcome, optionally tracing agent positions. Scenarios are
// data: the flags below assemble a spec.ScenarioSpec, -dump-spec prints
// that spec as JSON instead of running, and -spec runs a saved spec file —
// so every invocation is reproducible from a serialized artifact.
//
// Usage:
//
//	gathersim [-graph ring] [-n 8] [-rows 0] [-labels 5,9] [-starts 0,4]
//	          [-wakes 0,-1] [-algo known|gossip|unknown|randomized|baseline]
//	          [-msg 101,0110] [-trace-every 1000] [-max-rounds 0] [-summary]
//	gathersim -dump-spec > scenario.json
//	gathersim -spec scenario.json
//	gathersim -dump-spec | gathersim -spec -
//	gathersim -sweep sweep.json [-parallelism 8] [-watch]
//	gathersim -remote http://host:8080 [-graph ring -n 12 | -spec f | -sweep f]
//
// -watch renders a live progress line on stderr while a sweep runs: specs
// completed, percent of the scheduler's cost model done, and a cost-model
// ETA. Against a coordinator daemon it additionally polls /v1/fleet and
// shows live chunk completion and per-worker steal counters. Stdout stays
// clean — the summary table lands there, pipeable as ever.
//
// -spec - reads the spec from stdin, so specs pipe straight from
// -dump-spec output or gatherd responses.
//
// -remote targets a gatherd daemon instead of the in-process engine: a
// single scenario goes through POST /v1/run (cache-aware, bit-identical
// result), a -sweep is submitted as a summary-only job and its aggregate
// long-polled — so pointing -remote at a coordinator daemon (gatherd
// -workers) runs the sweep across a whole fleet from one CLI invocation.
//
// -sweep runs a SweepDef file (the same JSON document POST /v1/sweeps
// accepts; - reads stdin) locally on a parallel worker pool and prints the
// internal/agg summary table — runs, gathering rate, p50/p90/p99 of rounds,
// stepped rounds and moves, wall time — grouped by the sweep's axes. The
// raw per-scenario results are folded as they stream and never
// materialized, so sweep size is bounded by patience, not memory.
// -summary prints the same table after a single-scenario run.
//
// -wakes accepts -1 for "dormant until visited". For -algo unknown the
// scenario must match a configuration of at most 3 nodes (see DESIGN.md).
// For -graph grid and -graph torus, -rows selects the number of rows (0
// picks the most balanced shape); -n must be divisible into rows × cols
// with cols >= 1 (grid) or rows, cols >= 3 (torus).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/cluster"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gathersim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family     = flag.String("graph", "ring", "graph family: "+strings.Join(spec.GraphFamilies(), "|"))
		n          = flag.Int("n", 8, "graph size parameter (nodes, or dimension for hypercube)")
		rows       = flag.Int("rows", 0, "rows for grid/torus shapes (0 = most balanced)")
		seed       = flag.Int64("seed", 1, "seed for random graph families")
		labelsFlag = flag.String("labels", "5,9", "comma-separated agent labels")
		startsFlag = flag.String("starts", "", "comma-separated start nodes (default: spread)")
		wakesFlag  = flag.String("wakes", "", "comma-separated wake rounds, -1 = dormant (default: all 0)")
		algo       = flag.String("algo", "known", "algorithm: "+strings.Join(spec.Algorithms(), "|"))
		msgFlag    = flag.String("msg", "", "comma-separated binary messages (gossip)")
		traceEvery = flag.Int("trace-every", 0, "print positions every k rounds (0 = off)")
		maxRounds  = flag.Int("max-rounds", 0, "abort after this many rounds (0 = engine default)")
		specPath   = flag.String("spec", "", "run a saved scenario spec (JSON file) instead of building one from flags")
		dumpSpec   = flag.Bool("dump-spec", false, "print the spec the flags assemble as JSON and exit")
		sweepPath  = flag.String("sweep", "", "run a sweep definition (JSON file, - for stdin) and print its summary table")
		parallel   = flag.Int("parallelism", 0, "concurrent scenarios for -sweep (0 = GOMAXPROCS)")
		summary    = flag.Bool("summary", false, "print the aggregate summary table after the run")
		remote     = flag.String("remote", "", "gatherd base URL: run the scenario or sweep on that daemon instead of in-process")
		watch      = flag.Bool("watch", false, "with -sweep: render live progress (specs done, cost-model ETA; against a coordinator, chunk and steal counters) on stderr while the sweep runs")
	)
	flag.Parse()

	if *sweepPath != "" {
		// The sweep defines everything: scenario-shaping flags would be
		// silently ignored, so reject them.
		var conflict error
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sweep", "parallelism", "summary", "remote", "watch":
			default:
				conflict = fmt.Errorf("-%s conflicts with -sweep: the sweep file defines the scenarios", f.Name)
			}
			if f.Name == "parallelism" && *remote != "" {
				conflict = fmt.Errorf("-parallelism conflicts with -remote: the daemon chooses its own parallelism")
			}
		})
		if conflict != nil {
			return conflict
		}
		if *remote != "" {
			return runSweepRemote(*sweepPath, *remote, *watch)
		}
		return runSweep(*sweepPath, *parallel, *watch)
	}
	if *watch {
		return fmt.Errorf("-watch requires -sweep: single runs finish before a progress line helps")
	}

	var sp spec.ScenarioSpec
	if *specPath != "" {
		// The file defines the scenario: scenario-shaping flags would be
		// silently ignored, so reject them instead. -max-rounds (run
		// control) overrides the file, including an explicit 0 to restore
		// the engine default; -trace-every and -dump-spec also compose.
		var conflict error
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "spec", "max-rounds", "trace-every", "dump-spec", "summary", "remote":
			default:
				conflict = fmt.Errorf("-%s conflicts with -spec: the spec file defines the scenario", f.Name)
			}
		})
		if conflict != nil {
			return conflict
		}
		var err error
		if *specPath == "-" {
			// Specs pipe straight from gatherd responses or -dump-spec
			// output: `gathersim -dump-spec | gathersim -spec -`.
			data, rerr := io.ReadAll(os.Stdin)
			if rerr != nil {
				return fmt.Errorf("reading spec from stdin: %w", rerr)
			}
			sp, err = spec.Parse(data)
		} else {
			sp, err = spec.Load(*specPath)
		}
		if err != nil {
			return err
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "max-rounds" {
				sp.MaxRounds = *maxRounds
			}
		})
	} else {
		nSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				nSet = true
			}
		})
		var err error
		sp, err = specFromFlags(*family, *n, nSet, *rows, *seed, *labelsFlag, *startsFlag,
			*wakesFlag, *algo, *msgFlag, *maxRounds)
		if err != nil {
			return err
		}
	}
	if *dumpSpec {
		buf, err := sp.MarshalIndentJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(buf)
		return err
	}

	if *remote != "" {
		if *traceEvery > 0 {
			return fmt.Errorf("-trace-every conflicts with -remote: round tracing is engine-side")
		}
		return runRemote(*remote, sp, *summary)
	}

	sc, ar, err := sp.CompileArtifacts()
	if err != nil {
		return err
	}
	var opts []sim.Option
	if *traceEvery > 0 {
		every := *traceEvery
		opts = append(opts, sim.WithOnRound(func(v sim.RoundView) {
			if v.Round%every == 0 {
				fmt.Printf("round %-8d positions %v awake %v\n", v.Round, v.Positions, v.Awake)
			}
		}))
	}

	start := time.Now()
	res, err := sim.NewRunner(opts...).Run(sc)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	g := ar.Graph()
	fmt.Printf("graph %s (n=%d, diameter %d), T(EXPLO)=%d\n", g.Name(), g.N(), g.Diameter(), ar.Sequence().Duration())
	return printRun(sp, res, wall, *summary)
}

// printRun renders a completed run: one row per agent, the optional
// aggregate table, and the gathering verdict — shared by the local and
// -remote paths.
func printRun(sp spec.ScenarioSpec, res *sim.RunResult, wall time.Duration, summary bool) error {
	for _, a := range res.Agents {
		fmt.Printf("agent %-4d woke %-6d declared %-8d node %-3d leader %-4d",
			a.Label, a.WokenRound, a.HaltRound, a.FinalNode, a.Report.Leader)
		if a.Report.Size > 0 {
			fmt.Printf(" size %d", a.Report.Size)
		}
		if a.Report.Gossip != nil {
			keys := make([]string, 0, len(a.Report.Gossip))
			for m := range a.Report.Gossip {
				keys = append(keys, m)
			}
			sort.Strings(keys)
			fmt.Printf(" gossip ")
			for _, m := range keys {
				fmt.Printf("%q x%d ", m, a.Report.Gossip[m])
			}
		}
		fmt.Println()
	}
	if summary {
		s := agg.NewSummary()
		s.Observe(agg.KeyOf(sp), res, nil, wall)
		fmt.Println()
		s.Table("summary").Render(os.Stdout)
	}
	if res.AllHaltedTogether() {
		fmt.Printf("GATHERED in round %d at node %d\n", res.Rounds, res.Agents[0].FinalNode)
		return nil
	}
	return fmt.Errorf("agents did not gather")
}

// runRemote runs one scenario on a gatherd daemon (POST /v1/run) and
// renders the result exactly as a local run would — the response carries
// the same *sim.RunResult a local engine produces, bit-identically.
func runRemote(base string, sp spec.ScenarioSpec, summary bool) error {
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	wall := time.Since(start)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote run: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rr service.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return fmt.Errorf("remote run: decoding response: %w", err)
	}
	// A 200 whose body lacks the run fields is some other server answering
	// on that address (proxy default route, wrong port) — say so instead of
	// panicking on the missing fields.
	if rr.Result == nil || len(rr.Key) < 12 {
		return fmt.Errorf("remote run: %s answered 200 but not with a gatherd run response", base)
	}
	fmt.Printf("remote %s: key %s… cached=%v\n", base, rr.Key[:12], rr.Cached)
	return printRun(sp, rr.Result, wall, summary)
}

// runSweepRemote submits a sweep definition to a gatherd daemon as a
// summary-only job — no raw row ever crosses the wire — long-polls the
// summary, and renders the same table runSweep prints for a local run.
// Against a coordinator daemon (gatherd -workers), this one command fans
// the sweep out over a whole fleet. The HTTP client is the same
// cluster.Worker the coordinator uses, so the CLI shares its retries,
// deadlines and error reporting instead of duplicating the protocol.
func runSweepRemote(path, base string, watch bool) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return fmt.Errorf("reading sweep: %w", err)
	}
	def, err := spec.ParseSweepDef(data)
	if err != nil {
		return err // reject malformed sweeps before bothering the daemon
	}
	w := cluster.NewWorker(base)
	start := time.Now()
	acc, err := w.SubmitDef(context.Background(), def)
	if err != nil {
		return fmt.Errorf("remote sweep: %w", err)
	}
	stopWatch := func() {}
	if watch {
		// The watcher polls status (and /v1/fleet, when the daemon
		// coordinates one) while the summary long-poll below blocks. The
		// cost model is computed from the same expansion the daemon ran.
		specs, err := def.Specs()
		if err != nil {
			return err
		}
		var costTotal int64
		for _, sp := range specs {
			costTotal += sched.DefaultCost(sp)
		}
		summaryDone := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			watchSweepRemote(context.Background(), w, acc.JobID, len(specs), costTotal, start, summaryDone)
		}()
		stopWatch = func() { close(summaryDone); <-watchDone }
	}
	sr, err := w.SummaryResponse(context.Background(), acc.JobID)
	stopWatch() // the progress line must be gone before the table renders
	if err != nil {
		return fmt.Errorf("remote sweep: %w", err)
	}
	s := sr.Summary
	s.Table(fmt.Sprintf("remote sweep summary (%d scenarios in %v, job %s)",
		s.Total.Runs, time.Since(start).Round(time.Millisecond), acc.JobID)).Render(os.Stdout)
	if s.Total.Errors > 0 {
		return fmt.Errorf("%d of %d scenarios failed", s.Total.Errors, s.Total.Runs)
	}
	return nil
}

// runSweep expands a SweepDef file, runs every spec on the worker pool with
// the fold-as-you-stream path — raw results are folded into the summary as
// they complete, never materialized — and renders the shared agg table
// (identical to what GET /v1/jobs/{id}/summary reports for the same sweep).
func runSweep(path string, parallelism int, watch bool) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return fmt.Errorf("reading sweep: %w", err)
	}
	def, err := spec.ParseSweepDef(data)
	if err != nil {
		return err
	}
	specs, err := def.Specs()
	if err != nil {
		return err
	}
	start := time.Now()
	var s *agg.Summary
	if watch {
		s, err = watchSweepLocal(specs, parallelism)
	} else {
		s, err = agg.Summarize(sim.NewRunner(sim.WithParallelism(parallelism)), specs)
	}
	if err != nil {
		return err
	}
	s.Table(fmt.Sprintf("sweep summary (%d scenarios in %v)", s.Total.Runs, time.Since(start).Round(time.Millisecond))).Render(os.Stdout)
	if s.Total.Errors > 0 {
		return fmt.Errorf("%d of %d scenarios failed", s.Total.Errors, s.Total.Runs)
	}
	return nil
}

// specFromFlags assembles the scenario spec the scenario flags describe.
// Graph construction, algorithm lookup and validation all happen later, at
// compile time — this function only shapes data.
func specFromFlags(family string, n int, nSet bool, rows int, seed int64, labelsFlag, startsFlag,
	wakesFlag, algo, msgFlag string, maxRounds int) (spec.ScenarioSpec, error) {
	if rows != 0 && family != "grid" && family != "torus" {
		return spec.ScenarioSpec{}, fmt.Errorf("-rows applies only to grid and torus, not %q", family)
	}
	labels, err := parseInts(labelsFlag)
	if err != nil {
		return spec.ScenarioSpec{}, fmt.Errorf("labels: %w", err)
	}
	gs := spec.GraphSpec{Family: family, N: n, Rows: rows}
	switch family {
	case "tree", "gnp":
		gs.Seed = seed
	case "two":
		if !nSet {
			gs.N = 0 // the flag's default of 8 is not a user choice; an
			// explicit -n is kept so the registry can validate it
		}
	}
	var starts []int
	if startsFlag == "" {
		if starts, err = spec.SpreadStarts(gs, len(labels)); err != nil {
			return spec.ScenarioSpec{}, err
		}
	} else if starts, err = parseInts(startsFlag); err != nil {
		return spec.ScenarioSpec{}, fmt.Errorf("starts: %w", err)
	}
	wakes, err := defaultInts(wakesFlag, len(labels), func(int) int { return 0 })
	if err != nil {
		return spec.ScenarioSpec{}, fmt.Errorf("wakes: %w", err)
	}
	if len(starts) != len(labels) || len(wakes) != len(labels) {
		return spec.ScenarioSpec{}, fmt.Errorf("labels/starts/wakes length mismatch")
	}
	var msgs []string
	if msgFlag != "" {
		msgs = strings.Split(msgFlag, ",")
	}
	agents := make([]spec.AgentSpec, len(labels))
	for i := range labels {
		as := spec.AlgorithmSpec{Name: algo}
		if algo == "gossip" {
			msg := ""
			if i < len(msgs) {
				msg = msgs[i]
			}
			as = spec.Gossip(msg)
		}
		agents[i] = spec.AgentSpec{Label: labels[i], Start: starts[i], Wake: wakes[i], Algorithm: as}
	}
	return spec.ScenarioSpec{Graph: gs, Agents: agents, MaxRounds: maxRounds}, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func defaultInts(s string, n int, def func(i int) int) ([]int, error) {
	if s == "" {
		out := make([]int, n)
		for i := range out {
			out[i] = def(i)
		}
		return out, nil
	}
	return parseInts(s)
}
