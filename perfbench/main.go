// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the packages under test, in-process — services
// on loopback HTTP listeners — checks every operation's output, and prints
// one JSON line of metrics as its last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sweep-local    agg.Summarize over generated sweeps: the gathersim -sweep
//	               library path, where the engine does the work
//	gatherd-mixed  one gatherd serving POST /v1/run to two keep-alive
//	               clients: nine in ten requests are cache hits
//	fleet-sweeps   a journaled coordinator with two worker services,
//	               restarted from a journal holding a killed sweep
//
// With --trace 0 the result carries the end-to-end metrics: setup_s,
// ops_per_s, op_p50_ms, op_tail_ms and max_rss_mb. With --trace 1 it
// carries the per-layer metrics instead, measured on every other op from
// spans recorded around calls into each package's public API; the spans
// are written to .bench_build/trace/ when the run ends. Every run then
// probes the known defect (defect.go) and prints what it finds.
// BENCHMARK.json at the repository root records why each workload and
// metric exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// dir is a scratch directory inside the checkout, removed on exit.
	dir string
}

// workload runs one measured workload and returns its metrics.
type workload func(cfg config) (*report, error)

var workloads = map[string]workload{
	"sweep-local":   runSweepLocal,
	"gatherd-mixed": runGatherdMixed,
	"fleet-sweeps":  runFleetSweeps,
}

// buildDir holds everything the benchmark writes; .gitignore lists it.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      dir,
	}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	// The known defect is probed after the measured phase, so it costs no
	// measurement anything, and reported whatever it finds.
	failing, of, err := probeDefect()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: probing the known defect:", err)
		return 1
	}
	rep.note("known defect: %d of %d known-bound specs with delayed wakes do not gather within Theorem 3.1's bound; the workloads draw no delayed wakes", failing, of)
	if cfg.trace {
		rep.set("sim.known_defect_failing", "count", float64(failing))
	}
	if cfg.trace {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := rep.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// checkRoot refuses to run anywhere but the repository root: the
// benchmark measures the packages beside it and writes only below
// buildDir.
func checkRoot() error {
	for _, f := range []string{"go.mod", "internal/service", "perfbench/go.mod"} {
		if _, err := os.Stat(f); err != nil {
			return errors.New("run from the repository root (go.mod, internal/ and perfbench/ must be present)")
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
