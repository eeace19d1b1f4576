// Command gatherd serves simulations over HTTP: the daemon form of the
// repository. Scenarios arrive as spec JSON (the same documents gathersim
// -dump-spec emits), sweeps as SweepDef JSON, and since every run is a
// deterministic function of its spec, results are served from a
// content-addressed LRU cache — repeat traffic costs an O(1) lookup, and
// concurrent identical submissions compile and run exactly once.
//
// Usage:
//
//	gatherd [-addr :8080] [-cache 1024] [-jobs 2] [-parallelism 0]
//	        [-backlog 1024] [-max-sweep-specs 10000]
//	        [-workers http://a:8080,http://b:8080] [-chunks 8]
//	        [-journal /var/lib/gatherd] [-log-level info]
//	        [-pprof 127.0.0.1:6060]
//
// -workers turns the daemon into a cluster coordinator: summary-only sweep
// submissions (POST /v1/sweeps?summary=only) are partitioned by a
// deterministic cost model into many small chunks which the listed gatherd
// backends pull and steal from a shared queue, and the per-chunk summaries
// merge — in fixed chunk order — into one total that is bit-identical to a
// single-node run (internal/cluster, internal/sched, DESIGN.md §10, §12).
// -chunks sets the target chunk count per worker (default 8), balanced by
// predicted cost at every setting, -chunks 1 included. A coordinator's
// GET /metrics reports chunks dispatched, stolen and retried per worker
// under "scheduler", and GET /v1/fleet serves per-worker health, load and
// live sweep progress. Every other endpoint — single runs, raw-row sweeps,
// job lifecycle — keeps serving locally.
//
// -journal makes sweeps crash-safe: every accepted job, chunk plan,
// completed chunk summary and terminal state appends to a checksummed
// record log under the given directory, and on restart the daemon replays
// it — finished jobs come back with their summaries servable, interrupted
// jobs re-enter the queue under their original ids and re-run, with every
// chunk whose summary the journal already holds skipped rather than
// re-executed (the deterministic planner reproduces the identical plan, so
// recorded chunk keys match exactly; DESIGN.md §14). The resumed job's
// canonical summary is byte-identical to an uninterrupted run's. Journal
// health shows on /metrics as journal_records, chunks_skipped, jobs_resumed
// and resume_ms.
//
// -log-level selects structured-log verbosity (debug|info|warn|error;
// worker retirements and chunk failures log at warn with the worker URL
// and chunk id). -pprof serves net/http/pprof on a second, loopback-only
// listener for live profiling; non-loopback addresses are refused.
//
// API (see DESIGN.md §8 for the full table, §9 for summaries):
//
//	POST   /v1/run               run one ScenarioSpec synchronously
//	POST   /v1/sweeps            submit a SweepDef, returns a job id;
//	                             ?summary=only discards raw result rows
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/results NDJSON result stream, input order
//	GET    /v1/jobs/{id}/summary streaming aggregate of the sweep (counts,
//	                             p50/p90/p99 of rounds, stepped rounds,
//	                             moves, wall time; grouped by sweep axes),
//	                             keyed by a hash of the specs;
//	                             ?canonical=1 serves the deterministic
//	                             encoding alone, for byte comparison
//	                             across deployment shapes
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /healthz              liveness
//	GET    /metrics              requests, cache hit rate, queue depth,
//	                             rounds simulated per second
//
// Pipelines compose: `gathersim -dump-spec | curl -d @- host:8080/v1/run`
// runs a CLI-assembled scenario remotely, and a saved response's spec can
// be replayed locally with `gathersim -spec -`. A sweep whose consumer only
// wants the percentiles never ships a row per scenario: submit with
// ?summary=only and GET the summary — one document regardless of sweep
// size, bit-identical to what gathersim -sweep computes locally.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nochatter/internal/cluster"
	"nochatter/internal/journal"
	olog "nochatter/internal/obs/log"
	"nochatter/internal/sched"
	"nochatter/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gatherd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheSize     = flag.Int("cache", 1024, "result cache capacity, in entries")
		jobs          = flag.Int("jobs", 2, "concurrent sweep jobs")
		parallelism   = flag.Int("parallelism", 0, "concurrent specs per job (0 = GOMAXPROCS)")
		backlog       = flag.Int("backlog", 1024, "maximum queued (not yet running) jobs")
		maxSweepSpecs = flag.Int("max-sweep-specs", 10000, "reject sweeps expanding to more specs than this")
		workers       = flag.String("workers", "", "comma-separated gatherd worker base URLs; summary-only sweeps are sharded across them")
		chunks        = flag.Int("chunks", 0, "with -workers: target chunks per worker for the sweep scheduler (0 = default 8)")
		journalDir    = flag.String("journal", "", "directory for the crash-safe sweep journal; empty disables persistence")
		logLevel      = flag.String("log-level", "info", "log level: debug|info|warn|error")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
	)
	flag.Parse()

	level, err := olog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := olog.New(os.Stderr, level, "gatherd")

	svc := service.New(service.Config{
		CacheSize:     *cacheSize,
		Workers:       *jobs,
		Parallelism:   *parallelism,
		Backlog:       *backlog,
		MaxSweepSpecs: *maxSweepSpecs,
	})
	var coord *cluster.Coordinator
	if *workers != "" {
		var ws []*cluster.Worker
		for _, base := range strings.Split(*workers, ",") {
			base = strings.TrimSpace(base)
			if base == "" {
				continue
			}
			if !strings.Contains(base, "://") {
				if _, err := strconv.Atoi(base); err == nil {
					return fmt.Errorf("-workers now takes worker base URLs (scheme://host:port); for the concurrent-sweep-jobs count use -jobs %s", base)
				}
				return fmt.Errorf("-workers: %q is not a base URL (want scheme://host:port)", base)
			}
			ws = append(ws, cluster.NewWorker(base))
		}
		if len(ws) == 0 {
			return fmt.Errorf("-workers: no worker URLs given")
		}
		coord = cluster.NewCoordinator(ws...)
		if *chunks < 0 {
			return fmt.Errorf("-chunks: %d is not a chunk count", *chunks)
		}
		coord.SetPlanner(sched.Planner{ChunksPerWorker: *chunks})
		coord.SetLogger(olog.New(os.Stderr, level, "cluster"))
		coord.SetObs(svc.Registry(), svc.Tracer())
		svc.SetDistributor(coord.SummarizeSpecs)
		svc.SetSchedulerStats(coord.Stats)
		svc.SetFleet(func(ctx context.Context) any { return coord.Fleet(ctx) })
		logger.Info("coordinating summary-only sweeps", "workers", coord.Workers())
	} else if *chunks != 0 {
		return fmt.Errorf("-chunks requires -workers")
	}

	if *journalDir != "" {
		jnl, err := journal.Open(*journalDir)
		if err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
		defer func() {
			if err := jnl.Close(); err != nil {
				logger.Error("journal close", "err", err)
			}
		}()
		jnl.SetObs(svc.Registry())
		if coord != nil {
			coord.SetChunkStore(jnl)
		}
		svc.SetJournal(jnl)
		n, err := svc.ResumeJournal()
		if err != nil {
			logger.Warn("journal resume incomplete", "err", err)
		}
		logger.Info("journal open", "dir", *journalDir, "records", jnl.Records(), "jobs_resumed", n)
	}

	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr, logger); err != nil {
			return err
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	svc.Close()
	return nil
}

// servePprof starts the net/http/pprof handlers on their own listener. The
// profiler exposes heap contents and stack traces, so the address must be
// loopback — a daemon reachable from the network never accidentally ships
// its memory to whoever asks.
func servePprof(addr string, logger *slog.Logger) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("-pprof: %q is not a loopback address; profiling exposes process memory and must not be network-reachable", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		_ = http.Serve(ln, mux) //nolint — pprof listener lives for the process
	}()
	logger.Info("pprof listening", "addr", ln.Addr().String())
	return nil
}
