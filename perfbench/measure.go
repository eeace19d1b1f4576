package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: op counts, metrics, the human
// notes printed above the JSON line, and the tracer of a traced run.
type report struct {
	attempted int
	failed    int
	// mismatch is set when any check found a wrong output: an op's, or one
	// outside the measured ops, such as the fleet's resumed summary
	// differing from a single-process fold. Failed ops alone leave the run
	// correct; they are counted in failed.
	mismatch bool
	metrics  map[string]metric
	notes    []string
	tracer   *tracer
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) result() result {
	return result{
		Correct:   !r.mismatch,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// errWrong marks an output check that found a wrong output: a hit that
// differs from its first response, a summary that lost runs or whose bytes
// differ from a single-process fold. Both a wrong output and a failure (an
// error response, a run that did not gather) fail the op; a wrong output
// also makes the run incorrect.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// opFunc runs op i and returns the time the op itself took: input
// generation before the call and output checks after it are the
// benchmark's own work and stay out of the latency. A non-nil error, from
// the call or from its output check, counts the op as failed. warm is set
// on the ops of the warm-up, which are checked and counted like the others
// but neither timed nor traced.
type opFunc func(client, i int, warm bool) (time.Duration, error)

// warmup is how long ops run before the measured phase: the first half
// second of a run goes at up to half the speed of the rest, and the
// warm-up keeps that out of the figures.
const warmup = 2 * time.Second

// reservoirCap bounds the op latencies a run keeps.
const reservoirCap = 1 << 17

// reservoir keeps a uniform random sample of at most size op latencies
// (Algorithm R), and every latency while there are fewer. A run of
// millions of ops then spends a fixed amount of memory on its records, so
// the benchmark's own bookkeeping does not grow max_rss_mb with the op
// count. The sample is a deterministic function of the latencies seen.
type reservoir struct {
	mu   sync.Mutex
	size int
	seen int
	r    *rand.Rand
	vals []time.Duration
}

func newReservoir(size int) *reservoir {
	return &reservoir{size: size, r: rand.New(rand.NewPCG(1, 2))}
}

func (s *reservoir) add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if len(s.vals) < s.size {
		s.vals = append(s.vals, d)
	} else if j := s.r.IntN(s.seen); j < s.size {
		s.vals[j] = d
	}
}

// sample returns the kept latencies.
func (s *reservoir) sample() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.vals...)
}

// window is one equal slice of the measured phase: the ops that completed
// in it.
type window struct {
	lat *reservoir
	mu  sync.Mutex
	ok  int // ops that passed their checks
	len time.Duration
}

// loop is the outcome of a closed loop: its warm-up and measured phase.
type loop struct {
	attempted int
	warm      int // of the attempted ops, those of the warm-up
	failed    int
	wrong     int // failed ops whose output was wrong
	firstErr  error
	wall      time.Duration // of the measured phase
	mem       memDelta      // over both phases, as the attempted ops
	windows   []*window
}

// closedLoop runs a warm-up of length warm and then the measured phase of
// length d over one op sequence: each client takes the next op index, runs
// it, and takes the next as soon as it returns. Ops start only before a
// phase's deadline and always run to completion, so the measured phase
// starts once every warm-up op has returned. Each measured op is recorded
// in the window, of nwin equal ones, in which it completed (the last window
// also takes the ops that overrun the deadline).
func closedLoop(clients int, warm, d time.Duration, nwin int, op opFunc) loop {
	var next atomic.Int64
	type clientOut struct {
		attempted, warm, failed, wrong int
		firstErr                       error
	}
	outs := make([]clientOut, clients)
	wins := make([]*window, nwin)
	for k := range wins {
		wins[k] = &window{lat: newReservoir(reservoirCap / nwin), len: d / time.Duration(nwin)}
	}
	phase := func(length time.Duration, warming bool) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := &outs[c]
				for time.Since(start) < length {
					i := int(next.Add(1) - 1)
					took, err := op(c, i, warming)
					out.attempted++
					var w *window
					if warming {
						out.warm++
					} else {
						w = wins[min(int(time.Since(start)/wins[0].len), nwin-1)]
						w.lat.add(took)
					}
					if err == nil {
						if w != nil {
							w.mu.Lock()
							w.ok++
							w.mu.Unlock()
						}
						continue
					}
					out.failed++
					if errors.Is(err, errWrong) {
						out.wrong++
					}
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	before := readMem()
	phase(warm, true)
	l := loop{wall: phase(d, false), windows: wins}
	l.mem = readMem().since(before)
	wins[nwin-1].len = l.wall - time.Duration(nwin-1)*wins[0].len
	for _, o := range outs {
		l.attempted += o.attempted
		l.warm += o.warm
		l.failed += o.failed
		l.wrong += o.wrong
		if l.firstErr == nil {
			l.firstErr = o.firstErr
		}
	}
	return l
}

// endToEnd fills the five end-to-end metrics from a measured phase and
// the set-up samples. tailQ is the workload's fixed tail percentile.
// Throughput, median and tail latency are each the median, over the
// phase's windows, of the window's own figure: a burst of host
// contention that spans fewer than half the windows moves none of them.
func (r *report) endToEnd(l loop, setups []time.Duration, tailQ float64) {
	r.count(l)
	var rates, p50s, tails []float64
	beyond := math.MaxInt
	for _, w := range l.windows {
		lat := w.lat.sample()
		if len(lat) == 0 {
			continue
		}
		rates = append(rates, float64(w.ok)/w.len.Seconds())
		p50s = append(p50s, ms(quantile(lat, 0.5)))
		tails = append(tails, ms(quantile(lat, tailQ)))
		beyond = min(beyond, len(lat)-int(math.Ceil(tailQ*float64(len(lat)))))
	}
	r.set("setup_s", "s", median(setups).Seconds())
	r.set("ops_per_s", "1/s", medianOf(rates))
	r.set("op_p50_ms", "ms", medianOf(p50s))
	r.set("op_tail_ms", "ms", medianOf(tails))
	r.set("max_rss_mb", "MB", maxRSSMB())
	r.note("op_tail_ms is p%g; ops_per_s, op_p50_ms and op_tail_ms are medians over %d windows of %v, each with at least %d sampled ops beyond p%g",
		tailQ*100, len(l.windows), l.windows[0].len.Round(time.Millisecond), beyond, tailQ*100)
	r.note("setup: median of %d set-ups: %v", len(setups), setups)
}

// perLayer fills the report of a traced run: op counts, every per-layer
// metric, and the spans to write out. requestsPerOp is the client's HTTP
// requests per op.
func (r *report) perLayer(l loop, tr *tracer, ls *layers, lat *split, requestsPerOp int) {
	r.count(l)
	st := analyze(tr.snapshot())
	ls.mem = l.mem
	ls.requests = int64(requestsPerOp * st.ops)
	ls.emit(r, st, st.ops, l.attempted, lat.traced.sample(), lat.untraced.sample())
	r.tracer = tr
	r.note("traced %d of %d ops", st.ops, l.attempted)
}

// count takes a measured phase's op counts into the report.
func (r *report) count(l loop) {
	r.attempted, r.failed = l.attempted, l.failed
	r.mismatch = r.mismatch || l.wrong > 0
	r.note("ops: %d attempted, %d failed (%d with a wrong output); %d ops of warm-up, then %d measured in %.2fs", l.attempted, l.failed, l.wrong, l.warm, l.attempted-l.warm, l.wall.Seconds())
	if l.firstErr != nil {
		r.note("first failure: %v", l.firstErr)
	}
}

// timeSetups runs set-up reps times and returns the duration each rep
// measured. A rep times only its set-up proper: preparation it does before
// starting the clock (copying a journal, starting workers that a restart
// would find running) is left out. The last rep's state is what the
// measured phase goes on to use; earlier reps are torn down once timed.
func timeSetups(reps int, setup func(rep int, last bool) (took time.Duration, teardown func(), err error)) ([]time.Duration, error) {
	out := make([]time.Duration, reps)
	for rep := 0; rep < reps; rep++ {
		last := rep == reps-1
		took, teardown, err := setup(rep, last)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		out[rep] = took
		if !last && teardown != nil {
			teardown()
			// A repetition starts from a collected heap, as a fresh process
			// would, rather than on top of its predecessors' garbage.
			runtime.GC()
		}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

func median(ds []time.Duration) time.Duration {
	return quantile(append([]time.Duration(nil), ds...), 0.5)
}

// medianOf is the median of xs, the mean of the middle two when their
// count is even.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size so far. The services
// under test run in this process, so it covers them too.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memDelta is the Go runtime's allocation and GC-pause growth over an
// interval.
type memDelta struct {
	mallocs uint64
	pauseNs uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

func (m memDelta) since(before memDelta) memDelta {
	return memDelta{mallocs: m.mallocs - before.mallocs, pauseNs: m.pauseNs - before.pauseNs}
}
