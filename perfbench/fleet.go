package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/cluster"
	"nochatter/internal/journal"
	"nochatter/internal/obs"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

const (
	// fleetSpecs is the size of one fleet op: a sweep the default planner
	// cuts into one-spec chunks, so dispatch dominates the op.
	fleetSpecs   = 12
	fleetWorkers = 2
	// historySweeps completed sweeps precede the killed one in the journal
	// every set-up replays.
	historySweeps = 40
	// The killed sweep plans 16 chunks; the coordinator dies as the
	// killAfter-th chunk merges, leaving the rest for the restart.
	killedSpecs = 32
	killAfter   = 8
	fleetSetups = 5
	fleetTailQ  = 0.95
	// fleetWindows splits the measured phase into windows of some 500 ops.
	fleetWindows = 5
	// sampleEvery picks the ops whose summaries are compared byte for byte
	// with a single-process fold once the measured phase is over.
	sampleEvery = 8
)

// fleetSweep generates sweep i of a stream: n fresh randomized specs.
func fleetSweep(seed, stream uint64, i, n int) []spec.ScenarioSpec {
	r := opRNG(seed, stream, i)
	out := make([]spec.ScenarioSpec, n)
	for k := range out {
		out[k] = rendezvousSpec(r)
	}
	return out
}

// localCanonical is the reference every fleet summary must equal: the
// canonical encoding of one process folding the same specs (the Bobpp
// invariant — the result does not depend on how the work was cut).
func localCanonical(specs []spec.ScenarioSpec) ([]byte, error) {
	sum, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		return nil, err
	}
	return sum.CanonicalJSON()
}

// sample is a fleet op kept for the byte check against a local fold.
type sample struct {
	specs []spec.ScenarioSpec
	canon []byte
}

// checkSamples returns how many sampled summaries differ from the
// single-process fold of their specs.
func checkSamples(samples []sample) (int, error) {
	bad := 0
	for _, s := range samples {
		want, err := localCanonical(s.specs)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(s.canon, want) {
			bad++
		}
	}
	return bad, nil
}

// runFleetSweeps measures a journaled coordinator over two worker
// services, wired as cmd/gatherd wires them. Before any clock starts, the
// benchmark builds a journal holding historySweeps completed sweeps and
// one sweep killed mid-run by a crashpoint that freezes the journal.
// Set-up is the coordinator's restart on a copy of that journal: open and
// replay, ResumeJournal, and serving the resumed job's summary, which must
// equal a single-process fold byte for byte. Each repetition restarts
// against freshly started workers, so each re-runs the same chunks.
func runFleetSweeps(cfg config) (*report, error) {
	f := &fleet{hc: newClient(1)}
	if cfg.trace {
		f.tr = newTracer()
	}
	f.ls = &layers{}
	rep := newReport()

	base := filepath.Join(cfg.dir, "journal")
	killedID, want, err := f.buildJournal(cfg.seed, base)
	if err != nil {
		return nil, fmt.Errorf("building the journal: %w", err)
	}
	var opens, resumes []time.Duration
	var journalBytes int64
	setups, err := timeSetups(fleetSetups, func(r int, last bool) (time.Duration, func(), error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("restart-%d", r))
		n, err := copyJournal(base, dir)
		if err != nil {
			return 0, nil, err
		}
		journalBytes = n
		if err := f.startWorkers(); err != nil {
			return 0, nil, err
		}
		start := time.Now()
		resumed, open, resume, err := f.startCoordinator(dir)
		if err != nil {
			f.close()
			return 0, nil, err
		}
		code, body, err := get(f.hc, f.coord.url+"/v1/jobs/"+killedID+"/summary?canonical=1", nil)
		took := time.Since(start)
		if err != nil {
			f.close()
			return 0, nil, err
		}
		opens, resumes = append(opens, open), append(resumes, resume)
		if resumed != 1 || code != http.StatusOK || !bytes.Equal(body, want) {
			rep.mismatch = true
			rep.note("restart %d: resumed %d jobs; resumed summary (HTTP %d) differs from the single-process fold: %s", r, resumed, code, body)
		}
		return took, f.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	var samples []sample
	var smu sync.Mutex
	lat := newSplit()
	recs0, bytes0, err := f.journalSize()
	if err != nil {
		return nil, err
	}
	stats0 := f.cc.Stats()
	l := closedLoop(1, warmup, cfg.duration, fleetWindows, func(_, i int, warm bool) (time.Duration, error) {
		specs := fleetSweep(cfg.seed, streamFleet, i, fleetSpecs)
		traced := !warm && f.tr.traces(i)
		took, sum, err := f.sweep(i, specs, traced)
		if f.tr != nil && !warm {
			lat.add(traced, took)
		}
		if err != nil {
			return took, err
		}
		if err := checkSummary(sum, len(specs)); err != nil {
			return took, err
		}
		if i%sampleEvery == 0 {
			canon, err := sum.CanonicalJSON()
			if err != nil {
				return took, err
			}
			smu.Lock()
			samples = append(samples, sample{specs, canon})
			smu.Unlock()
		}
		return took, nil
	})
	// The sampled ops' byte checks, once the clock has stopped.
	bad, err := checkSamples(samples)
	if err != nil {
		return nil, err
	}
	l.failed += bad
	l.wrong += bad
	if bad > 0 && l.firstErr == nil {
		l.firstErr = wrongf("%d sampled fleet summaries differ from the single-process fold", bad)
	}
	rep.note("fleet: %d sampled ops byte-checked against a single-process fold", len(samples))
	if f.tr == nil {
		rep.endToEnd(l, setups, fleetTailQ)
		return rep, nil
	}

	ls := f.ls
	recs1, bytes1, err := f.journalSize()
	if err != nil {
		return nil, err
	}
	ls.journalRecords, ls.journalBytes = recs1-recs0, bytes1-bytes0
	ls.replayNs, ls.replayBytes = int64(median(opens)), journalBytes
	ls.resumeNs = int64(median(resumes))
	stats1 := f.cc.Stats()
	ls.chunks = stats1.Chunks - stats0.Chunks
	for w := range stats1.Workers {
		ls.stolen += stats1.Workers[w].Stolen
		ls.retried += stats1.Workers[w].Retried
		if w < len(stats0.Workers) {
			ls.stolen -= stats0.Workers[w].Stolen
			ls.retried -= stats0.Workers[w].Retried
		}
	}
	ls.chunksSkipped = f.coord.svc.Registry().Counter("chunks_skipped").Value()
	rep.perLayer(l, f.tr, ls, lat, 2)
	return rep, nil
}

// fleet is the coordinator, its journal and its workers, plus the state
// of the op being traced: one op runs at a time, so every span recorded
// while it runs belongs to it.
type fleet struct {
	tr *tracer
	ls *layers
	hc *http.Client

	workers []*node
	coord   *node
	cc      *cluster.Coordinator
	jnl     *journal.Journal

	on       atomic.Bool
	op       atomic.Int64
	root     atomic.Int64
	dispatch atomic.Int64
	summary  atomic.Int64 // the coordinator's open summary-request span
	postEnd  atomic.Int64 // when the op's submission handler returned
	started  atomic.Int64 // when the op's dispatch began
	// open holds each worker's open request span: a worker serves one
	// chunk at a time, so its executor's spans belong under that request.
	open [fleetWorkers]atomic.Int64

	cmu    sync.Mutex
	chunks [][]byte // canonical chunk summaries journaled for the op
}

// buildJournal runs the history and the killed sweep through a journaled
// coordinator in dir, then shuts everything down. It returns the killed
// job's id and the canonical summary its resumption must serve.
func (f *fleet) buildJournal(seed uint64, dir string) (string, []byte, error) {
	if err := f.startWorkers(); err != nil {
		return "", nil, err
	}
	defer f.close()
	if _, _, _, err := f.startCoordinator(dir); err != nil {
		return "", nil, err
	}
	for h := 0; h < historySweeps; h++ {
		specs := fleetSweep(seed, streamHistory, h, fleetSpecs)
		_, sum, err := f.sweep(-1, specs, false)
		if err != nil {
			return "", nil, err
		}
		if err := checkSummary(sum, len(specs)); err != nil {
			return "", nil, err
		}
	}
	var merged atomic.Int64
	var once sync.Once
	jnl := f.jnl
	f.cc.SetCrashpoint(func(p obs.Phase, chunk int) error {
		if p != obs.PhaseMerged || merged.Add(1) != killAfter {
			return nil
		}
		var fire bool
		once.Do(func() { fire = true; jnl.Freeze() })
		if fire {
			return errors.New("coordinator killed")
		}
		return nil
	})
	killed := fleetSweep(seed, streamHistory, historySweeps, killedSpecs)
	id, err := f.submit(killed, nil)
	if err != nil {
		return "", nil, err
	}
	if code, body, err := get(f.hc, f.coord.url+"/v1/jobs/"+id+"/summary", nil); err != nil || code != http.StatusConflict {
		return "", nil, fmt.Errorf("killed sweep: want HTTP 409, got %d %s (%v)", code, body, err)
	}
	want, err := localCanonical(killed)
	return id, want, err
}

// startWorkers boots fresh worker services: service.New with defaults
// behind its Handler, as a plain gatherd.
func (f *fleet) startWorkers() error {
	f.workers = nil
	for w := 0; w < fleetWorkers; w++ {
		svc := service.New(service.Config{})
		h := svc.Handler()
		if f.tr != nil {
			svc.SetExecutor(f.executor(w))
			h = f.wrapWorker(w, h)
		}
		n, err := startNode(svc, h)
		if err != nil {
			return err
		}
		f.workers = append(f.workers, n)
	}
	return nil
}

// startCoordinator boots the coordinator on the journal in dir, wired as
// cmd/gatherd -workers ... -journal dir wires it, and resumes the
// journal's interrupted jobs. It returns how many it resumed and how long
// the journal's open (its replay) and ResumeJournal took.
func (f *fleet) startCoordinator(dir string) (int, time.Duration, time.Duration, error) {
	svc := service.New(service.Config{})
	var opts []cluster.WorkerOption
	if f.tr != nil {
		opts = append(opts, cluster.WithHTTPClient(&http.Client{Transport: &fleetTransport{f: f, base: http.DefaultTransport}}))
	}
	ws := make([]*cluster.Worker, len(f.workers))
	for i, n := range f.workers {
		ws[i] = cluster.NewWorker(n.url, opts...)
	}
	cc := cluster.NewCoordinator(ws...)
	cc.SetObs(svc.Registry(), svc.Tracer())
	distribute := cc.SummarizeSpecs
	if f.tr != nil {
		distribute = f.distribute(cc)
	}
	svc.SetDistributor(distribute)
	svc.SetSchedulerStats(cc.Stats)
	svc.SetFleet(func(ctx context.Context) any { return cc.Fleet(ctx) })

	start := time.Now()
	jnl, err := journal.Open(dir)
	open := time.Since(start)
	if err != nil {
		svc.Close()
		return 0, 0, 0, err
	}
	jnl.SetObs(svc.Registry())
	var store cluster.ChunkStore = jnl
	if f.tr != nil {
		store = &fleetStore{f: f, j: jnl}
	}
	cc.SetChunkStore(store)
	svc.SetJournal(jnl)
	start = time.Now()
	resumed, err := svc.ResumeJournal()
	resume := time.Since(start)
	if err != nil {
		svc.Close()
		_ = jnl.Close()
		return 0, 0, 0, err
	}
	h := svc.Handler()
	if f.tr != nil {
		h = f.wrapCoordinator(h)
	}
	n, err := startNode(svc, h)
	if err != nil {
		svc.Close()
		_ = jnl.Close()
		return 0, 0, 0, err
	}
	f.coord, f.cc, f.jnl = n, cc, jnl
	return resumed, open, resume, nil
}

// close stops the coordinator, its journal and the workers.
func (f *fleet) close() {
	if f.coord != nil {
		f.coord.close()
		if err := f.jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing the journal:", err)
		}
		f.coord = nil
	}
	for _, w := range f.workers {
		w.close()
	}
	f.workers = nil
}

// journalSize returns the journal's record count and, once flushed, its
// file size.
func (f *fleet) journalSize() (int64, int64, error) {
	if err := f.jnl.Sync(); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(f.jnl.Path())
	if err != nil {
		return 0, 0, err
	}
	return f.jnl.Records(), fi.Size(), nil
}

// submit posts a summary-only sweep and returns its job id.
func (f *fleet) submit(specs []spec.ScenarioSpec, hdr http.Header) (string, error) {
	body, err := json.Marshal(spec.SweepDef{Explicit: specs})
	if err != nil {
		return "", err
	}
	code, resp, err := post(f.hc, f.coord.url+"/v1/sweeps?summary=only", body, hdr)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", code, resp)
	}
	var acc service.SweepAccepted
	if err := json.Unmarshal(resp, &acc); err != nil {
		return "", err
	}
	return acc.JobID, nil
}

// sweep runs op i: submit the specs as a summary-only sweep, then
// long-poll its summary. It returns the op's latency and the summary.
func (f *fleet) sweep(i int, specs []spec.ScenarioSpec, traced bool) (time.Duration, *agg.Summary, error) {
	var hdr http.Header
	var root span
	if traced {
		root = f.tr.start(i, 0, "op", "op")
		f.op.Store(int64(i))
		f.root.Store(root.ID)
		f.cmu.Lock()
		f.chunks = f.chunks[:0]
		f.cmu.Unlock()
		f.on.Store(true)
		hdr = http.Header{traceHeader: {fmt.Sprintf("%d,%d", i, root.ID)}}
	}
	start := time.Now()
	id, err := f.submit(specs, hdr)
	var code int
	var body []byte
	if err == nil {
		code, body, err = get(f.hc, f.coord.url+"/v1/jobs/"+id+"/summary", hdr)
	}
	took := time.Since(start)
	if traced {
		f.on.Store(false)
		root = f.tr.end(root)
		f.probe(i, specs, root)
	}
	if err != nil {
		return took, nil, err
	}
	if code != http.StatusOK {
		return took, nil, fmt.Errorf("summary: HTTP %d: %s", code, body)
	}
	var sr service.SummaryResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Summary == nil {
		return took, nil, wrongf("undecodable summary response (%v): %.200s", err, body)
	}
	return took, sr.Summary, nil
}

// probe records what the traced op leaves to direct calls: the queue wait
// between the submission's response and the dispatch, and timed calls of
// the planner, the chunk merge and the canonical encoding on the op's own
// data. Probes run after the op, outside its latency.
func (f *fleet) probe(i int, specs []spec.ScenarioSpec, root span) {
	tr := f.tr
	if post, began := f.postEnd.Load(), f.started.Load(); began > 0 {
		tr.record(span{ID: tr.ids.Add(1), Parent: root.ID, Op: i, Layer: "service", Name: "service.queue_wait",
			Start: min(post, began), End: began})
	}
	f.postEnd.Store(0)
	f.started.Store(0)
	p := tr.start(-1, 0, "sched", "sched.plan")
	sched.Planner{}.PlanSpecs(specs, fleetWorkers)
	tr.end(p)

	f.cmu.Lock()
	chunks := append([][]byte(nil), f.chunks...)
	f.cmu.Unlock()
	total := agg.NewSummary()
	for _, c := range chunks {
		sum := agg.NewSummary()
		if json.Unmarshal(c, sum) != nil {
			continue
		}
		m := tr.start(-1, 0, "agg", "agg.merge")
		total.Merge(sum)
		tr.end(m)
	}
	c := tr.start(-1, 0, "agg", "agg.canonical")
	buf, err := total.CanonicalJSON()
	tr.end(c)
	if err == nil {
		f.ls.add(&f.ls.canonicalBytes, int64(len(buf)))
	}
}

// parent returns the span the coordinator's work hangs under while a
// traced op runs: its dispatch, or the op itself before dispatch starts.
func (f *fleet) parent() (int, int64, bool) {
	if !f.on.Load() {
		return 0, 0, false
	}
	p := f.dispatch.Load()
	if p == 0 {
		p = f.root.Load()
	}
	return int(f.op.Load()), p, true
}

// distribute wraps Coordinator.SummarizeSpecs, the service's distributor,
// in the dispatch span.
func (f *fleet) distribute(cc *cluster.Coordinator) func(context.Context, []spec.ScenarioSpec) (*agg.Summary, error) {
	return func(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error) {
		if !f.on.Load() {
			return cc.SummarizeSpecs(ctx, specs)
		}
		s := f.tr.start(int(f.op.Load()), f.root.Load(), "cluster", "cluster.dispatch")
		f.started.Store(s.Start)
		f.dispatch.Store(s.ID)
		sum, err := cc.SummarizeSpecs(ctx, specs)
		f.dispatch.Store(0)
		// The summary request waits on the dispatch: hang it there when
		// it is open, so the wait is not counted as the service's own time.
		if p := f.summary.Load(); p != 0 {
			s.Parent = p
		}
		f.tr.end(s)
		return sum, err
	}
}

// wrapCoordinator records the coordinator's side of the op's two
// requests.
func (f *fleet) wrapCoordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := traceFrom(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		if r.Method == http.MethodPost {
			s := f.tr.start(op, parent, "service", "service.submit")
			h.ServeHTTP(w, r)
			f.postEnd.Store(f.tr.end(s).End)
			return
		}
		s := f.tr.start(op, parent, "service", "service.summary")
		f.summary.Store(s.ID)
		h.ServeHTTP(w, r)
		f.summary.Store(0)
		f.tr.end(s)
	})
}

// wrapWorker records worker wi's side of a chunk request.
func (f *fleet) wrapWorker(wi int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := traceFrom(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := f.tr.start(op, parent, "service", "service.worker")
		f.open[wi].Store(s.ID)
		h.ServeHTTP(w, r)
		f.open[wi].CompareAndSwap(s.ID, 0)
		f.tr.end(s)
	})
}

// traceFrom parses the trace header: op index and parent span.
func traceFrom(r *http.Request) (int, int64, bool) {
	a, b, ok := strings.Cut(r.Header.Get(traceHeader), ",")
	if !ok {
		return 0, 0, false
	}
	op, err1 := strconv.Atoi(a)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// executor is worker wi's default compile-and-run, with spans under the
// worker's open request (or, between requests, the dispatch).
func (f *fleet) executor(wi int) func(spec.ScenarioSpec) (*sim.RunResult, error) {
	return func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		op, parent, on := f.parent()
		tr := f.tr
		if !on {
			tr = nil
		}
		under := func(s span) {
			if p := f.open[wi].Load(); p != 0 {
				s.Parent = p
			}
			tr.end(s)
		}
		c := tr.start(op, parent, "spec", "spec.compile")
		sc, err := sp.Compile()
		under(c)
		if err != nil {
			return nil, err
		}
		s := tr.start(op, parent, "sim", "sim.run")
		res, err := sim.Run(sc)
		under(s)
		if on {
			f.ls.run(res, err)
		}
		return res, err
	}
}

// fleetStore is the coordinator's chunk store — the journal — with spans.
type fleetStore struct {
	f *fleet
	j *journal.Journal
}

func (s *fleetStore) GetChunk(key string) ([]byte, bool) {
	op, parent, on := s.f.parent()
	if !on {
		return s.j.GetChunk(key)
	}
	sp := s.f.tr.start(op, parent, "journal", "journal.get_chunk")
	buf, ok := s.j.GetChunk(key)
	s.f.tr.end(sp)
	return buf, ok
}

func (s *fleetStore) PutChunk(job, key string, canonical []byte) {
	op, parent, on := s.f.parent()
	if !on {
		s.j.PutChunk(job, key, canonical)
		return
	}
	sp := s.f.tr.start(op, parent, "journal", "journal.put_chunk")
	s.j.PutChunk(job, key, canonical)
	s.f.tr.end(sp)
	s.f.cmu.Lock()
	s.f.chunks = append(s.f.chunks, canonical)
	s.f.cmu.Unlock()
}

func (s *fleetStore) PutPlan(job string, keys []string) {
	op, parent, on := s.f.parent()
	if !on {
		s.j.PutPlan(job, keys)
		return
	}
	sp := s.f.tr.start(op, parent, "journal", "journal.put_plan")
	s.j.PutPlan(job, keys)
	s.f.tr.end(sp)
}

// fleetTransport is the coordinator's HTTP transport to its workers, with
// a span per request that ends when the response body is closed.
type fleetTransport struct {
	f    *fleet
	base http.RoundTripper
}

func (t *fleetTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op, parent, on := t.f.parent()
	if !on {
		return t.base.RoundTrip(r)
	}
	name := "cluster.request"
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/sweeps"):
		name = "cluster.submit"
	case strings.HasSuffix(r.URL.Path, "/summary"):
		name = "cluster.summary"
	case strings.HasSuffix(r.URL.Path, "/healthz"):
		name = "cluster.probe"
	}
	s := t.f.tr.start(op, parent, "cluster", name)
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, fmt.Sprintf("%d,%d", op, s.ID))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.f.tr.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.f.tr.end(s) }}
	return resp, nil
}

// spanBody ends its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// copyJournal copies the journal directory src to dst and returns the
// bytes copied.
func copyJournal(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return 0, err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return 0, err
		}
		n, err := io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
