package main

import (
	"sync"
	"time"

	"nochatter/internal/sim"
)

// layers accumulates the per-layer counts of a traced run: the counts
// spans cannot carry (rounds, moves, bytes) and the ones read from
// /metrics or from result fields. Durations come from spans (analyze).
// Every workload reports every per-layer metric; a layer a workload does
// not exercise reports zero.
type layers struct {
	mu sync.Mutex

	runsFailed              int64
	rounds, stepped, moves  int64
	poolBusyNs, poolSlotsNs int64 // pool workers' busy time; pool wall × parallelism

	uesBuilds int64

	canonicalBytes int64

	// requests counts the client HTTP requests of traced ops: op time that
	// no server-side span covers, per request, is service.http_overhead_us.
	requests      int64
	cacheHitRatio float64
	resumeNs      int64

	journalRecords, journalBytes int64 // appended during the measured phase
	replayNs, replayBytes        int64

	chunks, stolen, retried, chunksSkipped int64

	mem memDelta
}

// split collects op latencies of a traced run: traced ops and the
// untraced ops interleaved with them, whose ratio is the tracing overhead.
type split struct {
	traced, untraced *reservoir
}

func newSplit() *split {
	return &split{traced: newReservoir(reservoirCap), untraced: newReservoir(reservoirCap)}
}

func (s *split) add(traced bool, d time.Duration) {
	if traced {
		s.traced.add(d)
	} else {
		s.untraced.add(d)
	}
}

// run counts one engine run's outcome.
func (ls *layers) run(res *sim.RunResult, err error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err != nil || res == nil || !res.AllHaltedTogether() {
		ls.runsFailed++
		return
	}
	ls.rounds += int64(res.Rounds)
	ls.stepped += int64(res.SteppedRounds)
	ls.moves += int64(res.Moves)
}

func (ls *layers) add(field *int64, n int64) {
	ls.mu.Lock()
	*field += n
	ls.mu.Unlock()
}

// emit writes every per-layer metric. st holds the spans of the traced
// ops; ops counts them, memOps the ops the runtime deltas span; traced
// and untraced are op latencies with tracing on and off within the run.
func (ls *layers) emit(r *report, st spanStats, ops, memOps int, traced, untraced []time.Duration) {
	per := func(n int64, d int) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	perOp := func(n int64) float64 { return per(n, ops) }

	// sim engine and runner pool
	runNs := st.ns["sim.run"]
	r.set("sim.run_us", "us", st.meanUS("sim.run"))
	r.set("sim.ns_per_stepped_round", "ns", per(runNs, int(ls.stepped)))
	r.set("sim.stepped_rounds", "count/op", perOp(ls.stepped))
	// A run steps the round it ends in as well, so a run that skips
	// nothing steps one round more than it counts; that reads as no skip.
	skip := 0.0
	if ls.rounds > 0 {
		skip = max(0, 1-float64(ls.stepped)/float64(ls.rounds))
	}
	r.set("sim.skip_ratio", "ratio", skip)
	r.set("sim.moves", "count/op", perOp(ls.moves))
	r.set("sim.runs_failed", "count", float64(ls.runsFailed))
	r.set("sim.pool_busy_share", "ratio", per(ls.poolBusyNs, int(ls.poolSlotsNs)))

	// spec, ues
	r.set("spec.compile_us", "us", st.meanUS("spec.compile"))
	r.set("ues.build_us", "us", st.meanUS("ues.build"))
	r.set("ues.builds", "count", float64(ls.uesBuilds))

	// agg
	r.set("agg.fold_us", "us", st.meanUS("agg.fold"))
	r.set("agg.merge_us", "us", st.meanUS("agg.merge"))
	r.set("agg.canonical_us", "us", st.meanUS("agg.canonical"))
	r.set("agg.canonical_bytes", "bytes", per(ls.canonicalBytes, int(st.count["agg.canonical"])))

	// service
	r.set("service.speckey_us", "us", st.meanUS("service.speckey"))
	r.set("service.hit_us", "us", st.meanUS("service.hit"))
	r.set("service.miss_us", "us", st.meanUS("service.miss"))
	r.set("service.http_overhead_us", "us", per(st.uncover, int(ls.requests))/1e3)
	r.set("service.cache_hit_ratio", "ratio", ls.cacheHitRatio)
	r.set("service.queue_wait_ms", "ms", st.meanUS("service.queue_wait")/1e3)
	r.set("service.resume_ms", "ms", float64(ls.resumeNs)/1e6)

	// journal
	r.set("journal.put_chunk_us", "us", st.meanUS("journal.put_chunk"))
	r.set("journal.records_per_op", "count/op", per(ls.journalRecords, memOps))
	r.set("journal.bytes_per_op", "bytes/op", per(ls.journalBytes, memOps))
	r.set("journal.replay_ms", "ms", float64(ls.replayNs)/1e6)
	mbps := 0.0
	if ls.replayNs > 0 {
		mbps = float64(ls.replayBytes) / 1e6 / (float64(ls.replayNs) / 1e9)
	}
	r.set("journal.replay_mb_per_s", "MB/s", mbps)

	// sched
	r.set("sched.plan_us", "us", st.meanUS("sched.plan"))
	r.set("sched.chunks_per_op", "count/op", per(ls.chunks, memOps))
	r.set("sched.stolen", "count/op", per(ls.stolen, memOps))
	r.set("sched.retried", "count/op", per(ls.retried, memOps))

	// cluster
	r.set("cluster.chunk_rtt_ms", "ms", per(st.ns["cluster.submit"]+st.ns["cluster.summary"], int(st.count["cluster.submit"]))/1e6)
	r.set("cluster.dispatch_self_ms", "ms", per(st.selfName["cluster.dispatch"], int(st.count["cluster.dispatch"]))/1e6)
	r.set("cluster.chunks_skipped", "count", float64(ls.chunksSkipped))

	// Go runtime, over every op of the measured phase
	r.set("runtime.allocs_per_op", "count/op", per(int64(ls.mem.mallocs), memOps))
	r.set("runtime.gc_pause_ms", "ms/op", per(int64(ls.mem.pauseNs), memOps)/1e6)

	// self time per layer, per traced op
	for _, l := range []string{"sim", "pool", "spec", "agg", "service", "journal", "cluster"} {
		r.set("self."+l+"_ms", "ms/op", perOp(st.selfNs[l])/1e6)
	}

	// tracing itself
	overhead := 0.0
	if p := median(untraced); p > 0 {
		overhead = float64(median(traced)) / float64(p)
	}
	r.set("trace.overhead_ratio", "ratio", overhead)
	r.set("trace.unattributed_share", "ratio", per(st.uncover, int(st.opNs)))
}
