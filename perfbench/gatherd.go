package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

const (
	// hotSpecs is the hot set of known specs nine in ten requests ask for.
	hotSpecs = 64
	// cacheEntries is service.Config's default cache size; set-up fills it
	// so that every miss evicts from the first op on.
	cacheEntries   = 1024
	gatherdClients = 2
	gatherdSetups  = 5
	// gatherdTailQ is p95: with one request in ten a miss, it sits among
	// the misses — the write path — where p99 mostly measures the host
	// descheduling the loopback client or server.
	gatherdTailQ = 0.95
	// gatherdWindows splits the measured phase into windows of some
	// thousands of ops each.
	gatherdWindows = 20
)

// gatherdOp is op i of gatherd-mixed: a hot-set index, or (hot < 0) a
// fresh randomized-rendezvous spec.
type gatherdOp struct {
	hot  int
	miss spec.ScenarioSpec
}

func genGatherdOp(seed uint64, i int) gatherdOp {
	r := opRNG(seed, streamMiss, i)
	if r.IntN(10) < 9 {
		return gatherdOp{hot: r.IntN(hotSpecs)}
	}
	return gatherdOp{hot: -1, miss: rendezvousSpec(r)}
}

// node is one in-process gatherd: a service behind a loopback listener.
type node struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startNode serves h on a fresh loopback port.
func startNode(svc *service.Service, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{svc: svc, srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops the listener and the service and waits for both.
func (n *node) close() {
	_ = n.srv.Close()
	<-n.done
	n.svc.Close()
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// post sends body and returns the status and the whole response body.
func post(hc *http.Client, url string, body []byte, hdr http.Header) (int, []byte, error) {
	return do(hc, http.MethodPost, url, bytes.NewReader(body), hdr)
}

// get fetches url and returns the status and the whole body.
func get(hc *http.Client, url string, hdr http.Header) (int, []byte, error) {
	return do(hc, http.MethodGet, url, nil, hdr)
}

func do(hc *http.Client, method, url string, body io.Reader, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, body)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runGatherdMixed measures one gatherd serving POST /v1/run to two
// closed-loop keep-alive clients. Set-up starts the service and fills its
// result cache over HTTP: misses for 960 randomized specs, then the hot
// set last, so that LRU eviction takes fillers first. Like sweep-local,
// each repetition's hot set differs only in GraphSpec.Seed, so every
// repetition builds its exploration sequences cold.
func runGatherdMixed(cfg config) (*report, error) {
	sh := newShapes()
	hot, err := sweepMix.knownSpecs(newRNG(cfg.seed, streamHot), sh, hotSpecs)
	if err != nil {
		return nil, err
	}
	fillR := newRNG(cfg.seed, streamFill)
	fill := make([][]byte, cacheEntries-hotSpecs)
	for i := range fill {
		if fill[i], err = json.Marshal(rendezvousSpec(fillR)); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	ls := &layers{}
	if cfg.trace {
		tr = newTracer()
	}
	g := &gatherdRig{tr: tr, ls: ls, hc: newClient(gatherdClients)}

	var hotBodies, hotWant [][]byte
	var notes []string
	setups, err := timeSetups(gatherdSetups, func(rep int, last bool) (time.Duration, func(), error) {
		hotBodies = make([][]byte, len(hot))
		for i := range hot {
			sp := hot[i]
			sp.Graph.Seed = int64(gatherdSetups - 1 - rep)
			body, err := json.Marshal(sp)
			if err != nil {
				return 0, nil, err
			}
			hotBodies[i] = body
		}
		start := time.Now()
		n, err := g.start()
		if err != nil {
			return 0, nil, err
		}
		fillCodes, fillResp, err := g.postAll(n.url, fill)
		if err != nil {
			n.close()
			return 0, nil, err
		}
		hotCodes, hotResp, err := g.postAll(n.url, hotBodies)
		took := time.Since(start)
		if err != nil {
			n.close()
			return 0, nil, err
		}
		// Checked once the clock has stopped. A hot spec that does not
		// gather is cached as a failure: its hits are failed ops.
		for i, body := range fillResp {
			if _, err := checkRunResponse(body); err != nil || fillCodes[i] != http.StatusOK {
				n.close()
				return 0, nil, fmt.Errorf("filling the cache: HTTP %d: %.200s (%v)", fillCodes[i], body, err)
			}
		}
		hotWant = make([][]byte, len(hotResp))
		failing := 0
		for i, body := range hotResp {
			if hotCodes[i] != http.StatusOK {
				failing++
				continue
			}
			if _, err := checkRunResponse(body); err != nil {
				n.close()
				return 0, nil, fmt.Errorf("filling the cache: %w", err)
			}
			hotWant[i] = bytes.Replace(body, []byte(`"cached":false`), []byte(`"cached":true`), 1)
		}
		if got := n.svc.Snapshot().CacheEntries; got != cacheEntries {
			n.close()
			return 0, nil, fmt.Errorf("set-up left %d cache entries, want %d", got, cacheEntries)
		}
		if last && failing > 0 {
			notes = append(notes, fmt.Sprintf("%d of %d hot specs fail; their hits are failed ops", failing, len(hot)))
		}
		g.node = n
		return took, n.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer g.node.close()

	before := g.node.svc.Snapshot()
	lat := newSplit()
	l := closedLoop(gatherdClients, warmup, cfg.duration, gatherdWindows, func(_, i int, warm bool) (time.Duration, error) {
		op := genGatherdOp(cfg.seed, i)
		var body, want []byte
		if op.hot >= 0 {
			body, want = hotBodies[op.hot], hotWant[op.hot]
		} else {
			b, err := json.Marshal(op.miss)
			if err != nil {
				return 0, err
			}
			body = b
		}
		traced := !warm && tr.traces(i)
		took, code, resp, err := g.request(i, op, hot, body, traced)
		if tr != nil && !warm {
			lat.add(traced, took)
		}
		switch {
		case err != nil:
			return took, err
		case code != http.StatusOK:
			return took, fmt.Errorf("HTTP %d: %.200s", code, resp)
		case want != nil:
			if !bytes.Equal(resp, want) {
				return took, wrongf("hit for hot spec %d differs from its first response", op.hot)
			}
			return took, nil
		}
		_, err = checkRunResponse(resp)
		return took, err
	})
	rep := newReport()
	rep.notes = notes
	if tr == nil {
		rep.endToEnd(l, setups, gatherdTailQ)
		return rep, nil
	}
	after := g.node.svc.Snapshot()
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		ls.cacheHitRatio = float64(hits) / float64(hits+misses)
	}
	rep.perLayer(l, tr, ls, lat, 1)
	return rep, nil
}

// gatherdRig is the gatherd-mixed service and its clients, with the
// wrappers that record spans in a traced run.
type gatherdRig struct {
	tr   *tracer
	ls   *layers
	hc   *http.Client
	node *node

	// seedOp maps a miss spec's walk seed to its op, and handler maps an
	// op to its open handler span, so the executor's spans find their
	// parent.
	seedOp  sync.Map // uint64 → int
	handler sync.Map // int → int64
}

// traceHeader carries an op's index, root span and kind to the server.
const traceHeader = "Perfbench-Trace"

// start boots a gatherd: service.New with defaults behind its Handler. In
// a traced run the handler and the executor are wrapped.
func (g *gatherdRig) start() (*node, error) {
	svc := service.New(service.Config{})
	h := svc.Handler()
	if g.tr != nil {
		svc.SetExecutor(g.executor)
		h = g.wrap(h)
	}
	return startNode(svc, h)
}

// postAll sends every body to /v1/run over the rig's connections, split
// between the clients, and returns the statuses and bodies in input order.
func (g *gatherdRig) postAll(base string, bodies [][]byte) ([]int, [][]byte, error) {
	codes, out := make([]int, len(bodies)), make([][]byte, len(bodies))
	errs := make([]error, gatherdClients)
	var wg sync.WaitGroup
	for c := 0; c < gatherdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += gatherdClients {
				code, body, err := post(g.hc, base+"/v1/run", bodies[i], nil)
				if err != nil {
					errs[c] = err
					return
				}
				codes[i], out[i] = code, body
			}
		}(c)
	}
	wg.Wait()
	return codes, out, errors.Join(errs...)
}

// request sends op i and returns its round-trip time and response.
func (g *gatherdRig) request(i int, op gatherdOp, hot []spec.ScenarioSpec, body []byte, traced bool) (time.Duration, int, []byte, error) {
	var hdr http.Header
	var root span
	if traced {
		kind := "service.hit"
		if op.hot < 0 {
			kind = "service.miss"
			seed, _ := op.miss.Agents[0].Algorithm.ParamUint64("seed", 0)
			g.seedOp.Store(seed, i)
		}
		root = g.tr.start(i, 0, "op", "op")
		hdr = http.Header{traceHeader: {fmt.Sprintf("%d,%d,%s", i, root.ID, kind)}}
	}
	start := time.Now()
	code, resp, err := post(g.hc, g.node.url+"/v1/run", body, hdr)
	took := time.Since(start)
	if traced {
		g.tr.end(root)
		sp := op.miss
		if op.hot >= 0 {
			sp = hot[op.hot] // the ops' hot set is the last set-up's: Seed 0
		}
		k := g.tr.start(-1, 0, "service", "service.speckey")
		_, kerr := service.SpecKey(sp)
		g.tr.end(k)
		if kerr != nil {
			return took, code, resp, kerr
		}
	}
	return took, code, resp, err
}

// wrap records the server-side span of every traced request.
func (g *gatherdRig) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.Header.Get(traceHeader), ",")
		if len(parts) != 3 {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(parts[0])
		parent, _ := strconv.ParseInt(parts[1], 10, 64)
		s := g.tr.start(op, parent, "service", parts[2])
		g.handler.Store(op, s.ID)
		h.ServeHTTP(w, r)
		g.tr.end(s)
		g.handler.Delete(op)
	})
}

// executor is the service's default compile-and-run, with spans: the
// executor runs inside the handler of the request that missed.
func (g *gatherdRig) executor(sp spec.ScenarioSpec) (*sim.RunResult, error) {
	op, parent := -1, int64(0)
	if len(sp.Agents) > 0 {
		seed, _ := sp.Agents[0].Algorithm.ParamUint64("seed", 0)
		if v, ok := g.seedOp.LoadAndDelete(seed); ok {
			op = v.(int)
			if p, ok := g.handler.Load(op); ok {
				parent = p.(int64)
			}
		}
	}
	tr := g.tr
	if op < 0 {
		tr = nil // set-up traffic and untraced ops
	}
	c := tr.start(op, parent, "spec", "spec.compile")
	sc, err := sp.Compile()
	tr.end(c)
	if err != nil {
		return nil, err
	}
	s := tr.start(op, parent, "sim", "sim.run")
	res, err := sim.Run(sc)
	tr.end(s)
	if tr != nil {
		g.ls.run(res, err)
	}
	return res, err
}

// checkRunResponse is the output check of a POST /v1/run response: it
// decodes (else the output is wrong), and its run gathered (else the op
// failed).
func checkRunResponse(body []byte) (*service.RunResponse, error) {
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, wrongf("undecodable run response: %v", err)
	}
	if rr.Result == nil || !rr.Result.AllHaltedTogether() {
		return nil, fmt.Errorf("run response for %s shows no gathered run", rr.Key)
	}
	return &rr, nil
}
