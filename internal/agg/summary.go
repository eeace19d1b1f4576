// Package agg computes streaming, merge-able summaries of simulation
// sweeps: counts, means, minima/maxima and histogram-derived percentiles
// (p50/p90/p99) of gather rounds, engine-stepped rounds, total moves and
// wall time, grouped by the spec axes a sweep varies (graph family, size,
// team count, algorithm).
//
// The design goal is that a million-scenario sweep never materializes a
// million results to learn one percentile. Every reducer folds one
// sim.RunResult at a time in O(1) memory, and two summaries merge
// associatively and commutatively — all state is integer counters and
// hist.Dist distributions (sums, min/max and fixed-boundary histogram
// buckets) — so each worker of a parallel runner folds its own runs
// locally (sim.FoldBatch) and the merged total is bit-identical regardless
// of parallelism degree or completion order. The same determinism makes a
// summary a cacheable artifact: the service layer stores it under a key
// derived from the sweep's specs and serves repeats without refolding
// (GET /v1/jobs/{id}/summary). See DESIGN.md §9 for the reducer laws.
//
// Wall time is the one non-deterministic metric: it is collected and
// reported like the others, but Summary.CanonicalJSON — the encoding the
// determinism property tests compare — excludes it.
package agg

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"nochatter/internal/hist"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// Key identifies one group of a summary: the spec axes a sweep varies.
// KeyOf derives it from a ScenarioSpec, so sweep results are self-labeling —
// no side channel has to carry axis labels alongside the result stream.
type Key struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	Algo   string `json:"algo"`
}

// KeyOf derives a spec's group key: graph family, size parameter, team
// count, and the algorithm axis. A team where every agent runs the same
// algorithm labels the group with that name; a mixed team (hand-built
// gossip specs) labels it with the distinct names sorted and joined by "+",
// so grouping stays deterministic.
func KeyOf(sp spec.ScenarioSpec) Key {
	k := Key{Family: sp.Graph.Family, N: sp.Graph.N, K: len(sp.Agents)}
	seen := map[string]bool{}
	var names []string
	for _, ag := range sp.Agents {
		if !seen[ag.Algorithm.Name] {
			seen[ag.Algorithm.Name] = true
			names = append(names, ag.Algorithm.Name)
		}
	}
	sort.Strings(names)
	k.Algo = strings.Join(names, "+")
	return k
}

// compare orders keys lexicographically by (family, n, k, algo): the
// rendering and marshaling order of groups.
func (k Key) compare(o Key) int {
	return cmp.Or(
		strings.Compare(k.Family, o.Family),
		cmp.Compare(k.N, o.N),
		cmp.Compare(k.K, o.K),
		strings.Compare(k.Algo, o.Algo),
	)
}

// Cell is the reduction of one group (or of the whole sweep, for
// Summary.Total): outcome counters plus one Dist per metric. Rounds,
// Stepped and Moves fold only successful runs — a failed run has no
// meaningful round count — while Wall folds every run, since failures cost
// wall time too.
type Cell struct {
	// Runs counts all observations, Errors the failed ones, and Gathered
	// the successful runs in which every agent halted in the same round at
	// the same node (the paper's success criterion).
	Runs     int64 `json:"runs"`
	Errors   int64 `json:"errors"`
	Gathered int64 `json:"gathered"`

	// Rounds is the distribution of RunResult.Rounds: the global round of
	// the last halt — the paper's gathering-time measure.
	Rounds hist.Dist `json:"rounds"`
	// Stepped is the distribution of RunResult.SteppedRounds: the run's
	// active rounds (the rest were fast-forwarded).
	Stepped hist.Dist `json:"stepped_rounds"`
	// Moves is the distribution of RunResult.Moves: total edge traversals.
	Moves hist.Dist `json:"moves"`
	// Wall is the distribution of per-run wall time in nanoseconds. It is
	// the one non-deterministic block; CanonicalJSON excludes it.
	Wall hist.Dist `json:"wall_ns"`
}

// observe folds one run outcome into the cell.
func (c *Cell) observe(res *sim.RunResult, err error, wall time.Duration) {
	c.Runs++
	c.Wall.Observe(int64(wall))
	if err != nil || res == nil {
		c.Errors++
		return
	}
	if res.AllHaltedTogether() {
		c.Gathered++
	}
	c.Rounds.Observe(int64(res.Rounds))
	c.Stepped.Observe(int64(res.SteppedRounds))
	c.Moves.Observe(int64(res.Moves))
}

// merge folds o into c.
func (c *Cell) merge(o *Cell) {
	c.Runs += o.Runs
	c.Errors += o.Errors
	c.Gathered += o.Gathered
	c.Rounds.Merge(o.Rounds)
	c.Stepped.Merge(o.Stepped)
	c.Moves.Merge(o.Moves)
	c.Wall.Merge(o.Wall)
}

// Group is one (Key, Cell) pair of a summary's group-by.
type Group struct {
	Key
	Cell
}

// Summary is the streaming reduction of a sweep: a Total cell over every
// run plus one cell per group key. Construct with NewSummary, fold results
// with Observe, and combine per-worker summaries with Merge.
//
// Observe and Merge commute and associate (every underlying reducer does),
// so the summary of a fixed multiset of results is independent of fold
// order and worker count: parallelism 1 and parallelism N produce
// bit-identical summaries. See the property tests and DESIGN.md §9.
type Summary struct {
	Total  Cell
	groups map[Key]*Cell
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{groups: make(map[Key]*Cell)}
}

// cell returns the group cell for k, creating it (and the group map of a
// zero-value Summary) on first use.
func (s *Summary) cell(k Key) *Cell {
	if s.groups == nil {
		s.groups = make(map[Key]*Cell)
	}
	c := s.groups[k]
	if c == nil {
		c = &Cell{}
		s.groups[k] = c
	}
	return c
}

// Observe folds one run outcome under its group key.
func (s *Summary) Observe(key Key, res *sim.RunResult, err error, wall time.Duration) {
	s.Total.observe(res, err, wall)
	s.cell(key).observe(res, err, wall)
}

// Merge folds o into s. Merging per-worker summaries in any order yields
// the same result.
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	s.Total.merge(&o.Total)
	for k, oc := range o.groups {
		s.cell(k).merge(oc)
	}
}

// Groups returns the summary's groups sorted by key — the deterministic
// order used for marshaling and rendering.
func (s *Summary) Groups() []Group {
	refs := s.sortedGroups()
	out := make([]Group, len(refs))
	for i, g := range refs {
		out[i] = Group{Key: g.key, Cell: *g.cell}
	}
	return out
}

// groupRef is one group of a summary by reference, so that walking the
// groups in key order copies no cell.
type groupRef struct {
	key  Key
	cell *Cell
}

// sortedGroups returns the summary's groups sorted by key.
func (s *Summary) sortedGroups() []groupRef {
	out := make([]groupRef, 0, len(s.groups))
	for k, c := range s.groups {
		out = append(out, groupRef{key: k, cell: c})
	}
	slices.SortFunc(out, func(a, b groupRef) int { return a.key.compare(b.key) })
	return out
}

// Group returns the cell of one key and whether it exists.
func (s *Summary) Group(k Key) (Cell, bool) {
	c, ok := s.groups[k]
	if !ok {
		return Cell{}, false
	}
	return *c, true
}

// AppendJSON appends the summary's wire form to dst and returns the
// extended buffer: {"total":…,"groups":[…]}, groups in key order and the
// "groups" member left out when there are none; each group is its key's
// fields followed by its cell's. The bytes are those encoding/json writes
// for the same structure, string escaping included, but they are written
// in one pass, each Dist by hist.Dist.AppendJSON, without reflection and
// without the re-scan encoding/json gives a nested marshaler's output.
// The encoding of a given summary is deterministic.
func (s *Summary) AppendJSON(dst []byte) []byte {
	return s.appendJSON(dst, false)
}

// AppendCanonicalJSON appends the summary's canonical encoding to dst:
// AppendJSON's bytes with every wall_ns distribution written as an empty
// one. Wall time is the one metric the machine decides rather than the
// scenario, so it is excluded from the encoding over which bit-identity
// (across parallelism degrees, across recomputation from raw results,
// across deployment shapes) is guaranteed and tested.
func (s *Summary) AppendCanonicalJSON(dst []byte) []byte {
	return s.appendJSON(dst, true)
}

func (s *Summary) appendJSON(dst []byte, canonical bool) []byte {
	dst = append(dst, `{"total":{`...)
	dst = s.Total.appendFields(dst, canonical)
	dst = append(dst, '}')
	if len(s.groups) > 0 {
		dst = append(dst, `,"groups":[`...)
		for i, g := range s.sortedGroups() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"family":`...)
			dst = appendString(dst, g.key.Family)
			dst = append(dst, `,"n":`...)
			dst = strconv.AppendInt(dst, int64(g.key.N), 10)
			dst = append(dst, `,"k":`...)
			dst = strconv.AppendInt(dst, int64(g.key.K), 10)
			dst = append(dst, `,"algo":`...)
			dst = appendString(dst, g.key.Algo)
			dst = append(dst, ',')
			dst = g.cell.appendFields(dst, canonical)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendFields appends the cell's members, without braces; canonical
// writes Wall as the empty Dist.
func (c *Cell) appendFields(dst []byte, canonical bool) []byte {
	dst = append(dst, `"runs":`...)
	dst = strconv.AppendInt(dst, c.Runs, 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, c.Errors, 10)
	dst = append(dst, `,"gathered":`...)
	dst = strconv.AppendInt(dst, c.Gathered, 10)
	dst = append(dst, `,"rounds":`...)
	dst = c.Rounds.AppendJSON(dst)
	dst = append(dst, `,"stepped_rounds":`...)
	dst = c.Stepped.AppendJSON(dst)
	dst = append(dst, `,"moves":`...)
	dst = c.Moves.AppendJSON(dst)
	dst = append(dst, `,"wall_ns":`...)
	wall := &c.Wall
	if canonical {
		wall = &hist.Dist{}
	}
	return wall.AppendJSON(dst)
}

// appendString appends s as encoding/json writes a string. Printable
// ASCII other than ", \ and the HTML-sensitive <, > and & is copied
// between quotes; any other string goes through encoding/json, which
// escapes it and replaces invalid UTF-8 with U+FFFD.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// MarshalJSON returns AppendJSON's encoding in a slice of its exact size:
// callers such as the journal keep these bytes for the process lifetime.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return bytes.Clone(s.AppendJSON(s.encodeBuf())), nil
}

// CanonicalJSON returns AppendCanonicalJSON's encoding in a slice of its
// exact size: the journal keeps every chunk's canonical bytes for the
// process lifetime. The error is always nil.
func (s *Summary) CanonicalJSON() ([]byte, error) {
	return bytes.Clone(s.AppendCanonicalJSON(s.encodeBuf())), nil
}

// encodeBuf returns an empty buffer with room for a typical encoding of
// s, about a kilobyte per cell.
func (s *Summary) encodeBuf() []byte {
	return make([]byte, 0, (1+len(s.groups))<<10)
}

// cellWire is a Cell as encoding/json decodes it: the same members, with
// each Dist as its hist.Wire. A summary so decodes in one pass over the
// document, and each Dist is validated once, by hist.Dist.Restore, rather
// than by a nested UnmarshalJSON that decodes its bytes a second time.
type cellWire struct {
	Runs     int64     `json:"runs"`
	Errors   int64     `json:"errors"`
	Gathered int64     `json:"gathered"`
	Rounds   hist.Wire `json:"rounds"`
	Stepped  hist.Wire `json:"stepped_rounds"`
	Moves    hist.Wire `json:"moves"`
	Wall     hist.Wire `json:"wall_ns"`
}

// restore sets c from w, or returns the first Dist's validation error.
func (c *Cell) restore(w *cellWire) error {
	c.Runs, c.Errors, c.Gathered = w.Runs, w.Errors, w.Gathered
	for _, m := range [...]struct {
		d *hist.Dist
		w *hist.Wire
	}{{&c.Rounds, &w.Rounds}, {&c.Stepped, &w.Stepped}, {&c.Moves, &w.Moves}, {&c.Wall, &w.Wall}} {
		if err := m.d.Restore(m.w); err != nil {
			return err
		}
	}
	return nil
}

// summaryWire is a Summary as encoding/json decodes it.
type summaryWire struct {
	Total  cellWire `json:"total"`
	Groups []struct {
		Key
		cellWire
	} `json:"groups"`
}

// UnmarshalJSON restores a summary (a served wire document) into a
// foldable, mergeable value. It accepts the documents a decode into
// Summary's own structure accepts, with each Dist validated as
// hist.Dist.UnmarshalJSON validates it, and rejects a document that lists
// one group key twice. On error s is left as it was.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var w summaryWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	var total Cell
	if err := total.restore(&w.Total); err != nil {
		return err
	}
	cells := make([]Cell, len(w.Groups))
	for i := range w.Groups {
		if err := cells[i].restore(&w.Groups[i].cellWire); err != nil {
			return err
		}
	}
	groups := make(map[Key]*Cell, len(w.Groups))
	for i, g := range w.Groups {
		if _, dup := groups[g.Key]; dup {
			return fmt.Errorf("agg: duplicate summary group %+v", g.Key)
		}
		groups[g.Key] = &cells[i]
	}
	s.Total, s.groups = total, groups
	return nil
}

// Summarize compiles and runs every spec on r's worker pool, folding each
// result into a per-worker Summary merged at the end (sim.FoldBatch): the
// raw result set is never materialized. Group keys come from the specs
// themselves (KeyOf), so sweep output is self-labeling. Compilation errors
// fail fast — a spec that cannot compile is a malformed sweep, not a data
// point. Deterministic: the summary is bit-identical (CanonicalJSON) for
// any parallelism.
func Summarize(r *sim.Runner, specs []spec.ScenarioSpec) (*Summary, error) {
	scs, err := spec.CompileAll(specs)
	if err != nil {
		return nil, err
	}
	return SummarizeScenarios(r, specs, scs), nil
}

// SummarizeScenarios folds pre-compiled scenarios whose index-aligned specs
// provide the group keys; see Summarize. Run errors (max rounds exceeded)
// are folded as error observations, not returned.
func SummarizeScenarios(r *sim.Runner, specs []spec.ScenarioSpec, scs []sim.Scenario) *Summary {
	return sim.FoldBatch(r, scs, NewSummary, func(acc *Summary, br sim.BatchResult) {
		acc.Observe(KeyOf(specs[br.Index]), br.Result, br.Err, br.Wall)
	}, (*Summary).Merge)
}
