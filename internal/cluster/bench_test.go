package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// Paced-backend emulation: each backend runs the real engine — results,
// and therefore the merged summary bytes, are the real thing — and then
// holds its job slot for pacedStep per stepped round of the run. On a
// host with fewer cores than the fleet has job slots this is the only way
// co-located backends can show N-fold capacity. Pacing by measured stepped
// rounds rather than by the planner's model keeps the benchmark honest:
// the plan only approximates the pacing, so stealing has to absorb the
// model error, as against real machines. Numbers are emulated, not
// measured on separate machines.
const (
	pacedStep        = 2 * time.Microsecond
	pacedParallelism = 2 // job slots per backend
)

// pacedSweep is deliberately skewed: barbell exploration cost grows about
// as n^1.5, so the barbells at the tail of the expansion dwarf the rings
// at its head by two orders of magnitude. Wakes stay at most 101, so no
// spec runs into the round cap, whose outliers would let one spec dominate
// every schedule.
func pacedSweep(b *testing.B) []spec.ScenarioSpec {
	b.Helper()
	specs, err := spec.SweepDef{
		Name:      "sched-{family}-n{n}-w{wake}",
		Families:  []string{"ring", "star", "barbell"},
		Sizes:     []int{6, 8, 12, 16, 24, 32},
		TeamSizes: []int{2},
		Wakes: [][]int{{0, 0}, {0, 7}, {7, 0}, {0, 13}, {13, 0}, {0, 31},
			{31, 0}, {0, 57}, {57, 0}, {0, 101}, {101, 0}, {0, 77}},
	}.Specs()
	if err != nil {
		b.Fatal(err)
	}
	return specs
}

// pacedFleet boots backends fresh paced gatherd services, so every sweep
// starts cold and the timings compare scheduled engine work, not cache
// hits. The returned function shuts them down.
func pacedFleet(backends int) ([]*Worker, func()) {
	workers := make([]*Worker, backends)
	var closers []func()
	for i := range workers {
		svc := service.New(service.Config{Parallelism: pacedParallelism})
		svc.SetExecutor(func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
			res, err := sp.Run()
			if err != nil {
				return nil, err
			}
			time.Sleep(time.Duration(res.SteppedRounds) * pacedStep)
			return res, nil
		})
		srv := httptest.NewServer(svc.Handler())
		closers = append(closers, srv.Close, svc.Close)
		workers[i] = NewWorker(srv.URL)
	}
	return workers, func() {
		for _, c := range closers {
			c()
		}
	}
}

// BenchmarkPacedFleet dispatches one cost-skewed summary-only sweep over
// 1, 2 and 4 paced backends at the default chunk count, and at 4 backends
// over 1 to 16 chunks per worker: the emulated scaling and granularity
// curves behind the planner's default. It reports wall ms per sweep,
// chunks dispatched and chunks stolen, and fails when the merged summary's
// canonical bytes differ from the single-process fold.
func BenchmarkPacedFleet(b *testing.B) {
	specs := pacedSweep(b)
	local, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		b.Fatal(err)
	}
	want, err := local.CanonicalJSON()
	if err != nil {
		b.Fatal(err)
	}
	def := sched.DefaultChunksPerWorker
	for _, c := range []struct{ backends, cpw int }{
		{1, def}, {2, def}, {4, 1}, {4, 2}, {4, 4}, {4, def}, {4, 16},
	} {
		b.Run(fmt.Sprintf("backends=%d/cpw=%d", c.backends, c.cpw), func(b *testing.B) {
			var wall time.Duration
			var chunks, stolen int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				workers, stop := pacedFleet(c.backends)
				coord := NewCoordinator(workers...)
				coord.SetPlanner(sched.Planner{ChunksPerWorker: c.cpw})
				b.StartTimer()
				start := time.Now()
				merged, err := coord.SummarizeSpecs(context.Background(), specs)
				wall += time.Since(start)
				b.StopTimer()
				stop()
				if err != nil {
					b.Fatal(err)
				}
				got, err := merged.CanonicalJSON()
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					b.Fatal("merged summary differs from the single-process fold")
				}
				stats := coord.Stats()
				chunks += stats.Chunks
				for _, w := range stats.Workers {
					stolen += w.Stolen
				}
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(float64(wall.Microseconds())/1000/n, "ms/sweep")
			b.ReportMetric(float64(chunks)/n, "chunks/sweep")
			b.ReportMetric(float64(stolen)/n, "steals/sweep")
		})
	}
}
