package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point of that layer's package.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an op's root span and for spans outside any op
	Op     int    `json:"op"`     // op index; -1 for set-up
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the spans kept in memory; once it is reached, later ops
// run untraced.
const maxSpans = 1 << 17

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// traces reports whether op i is traced: every other op, while the span
// budget lasts.
func (t *tracer) traces(i int) bool {
	if t == nil || i%2 == 1 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) < maxSpans
}

// start opens a span; the caller closes it with end.
func (t *tracer) start(op int, parent int64, layer, name string) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Op: op, Layer: layer, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes s, records it and returns it.
func (t *tracer) end(s span) span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.epoch))
	t.record(s)
	return s
}

// record keeps a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is the analysis of a run's spans: per-name totals, per-layer
// self time, and how much of the ops' time no layer span covers.
type spanStats struct {
	count    map[string]int64 // spans per name
	ns       map[string]int64 // total duration per name
	selfNs   map[string]int64 // self time per layer, within ops
	selfName map[string]int64 // self time per span name, within ops
	opNs     int64            // total duration of op root spans
	uncover  int64            // op time covered by no other span of the op
	ops      int              // op root spans
}

// analyze computes spanStats. A span's self time is its duration minus the
// part of its interval that its direct children cover; op roots are the
// spans of layer "op".
func analyze(spans []span) spanStats {
	st := spanStats{count: map[string]int64{}, ns: map[string]int64{}, selfNs: map[string]int64{}, selfName: map[string]int64{}}
	children := map[int64][]span{}
	byOp := map[int][]span{}
	for _, s := range spans {
		st.count[s.Name]++
		st.ns[s.Name] += s.dur()
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Op >= 0 && s.Layer != "op" {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for _, s := range spans {
		if s.Op < 0 {
			continue // set-up and direct calls after an op: no op time to attribute
		}
		self := s.dur() - covered(children[s.ID], s.Start, s.End)
		st.selfNs[s.Layer] += self
		st.selfName[s.Name] += self
		if s.Layer == "op" {
			st.ops++
			st.opNs += s.dur()
			st.uncover += s.dur() - covered(byOp[s.Op], s.Start, s.End)
		}
	}
	return st
}

// covered returns the length of the union of the spans' intervals, clipped
// to [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// mean returns the mean duration of the spans named name, in µs.
func (st spanStats) meanUS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.ns[name]) / float64(st.count[name]) / 1e3
}
