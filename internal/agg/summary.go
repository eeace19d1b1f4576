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
	"encoding/json"
	"fmt"
	"sort"
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

// less orders keys lexicographically by (family, n, k, algo): the rendering
// and marshaling order of groups.
func (k Key) less(o Key) bool {
	if k.Family != o.Family {
		return k.Family < o.Family
	}
	if k.N != o.N {
		return k.N < o.N
	}
	if k.K != o.K {
		return k.K < o.K
	}
	return k.Algo < o.Algo
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
	out := make([]Group, 0, len(s.groups))
	for k, c := range s.groups {
		out = append(out, Group{Key: k, Cell: *c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.less(out[j].Key) })
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

// summaryWire is the JSON form of a Summary.
type summaryWire struct {
	Total  Cell    `json:"total"`
	Groups []Group `json:"groups,omitempty"`
}

// MarshalJSON renders the summary with groups in sorted key order; the
// encoding of a given summary is deterministic.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryWire{Total: s.Total, Groups: s.Groups()})
}

// UnmarshalJSON restores a summary (a served wire document) into a
// foldable, mergeable value.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var w summaryWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.Total = w.Total
	s.groups = make(map[Key]*Cell, len(w.Groups))
	for _, g := range w.Groups {
		if _, dup := s.groups[g.Key]; dup {
			return fmt.Errorf("agg: duplicate summary group %+v", g.Key)
		}
		cell := g.Cell
		s.groups[g.Key] = &cell
	}
	return nil
}

// CanonicalJSON returns the summary's deterministic encoding: the regular
// wire form with every Wall distribution zeroed. Wall time is the one
// metric the machine decides rather than the scenario, so it is excluded
// from the encoding over which bit-identity (across parallelism degrees,
// across recomputation from raw results) is guaranteed and tested.
func (s *Summary) CanonicalJSON() ([]byte, error) {
	c := &Summary{Total: s.Total, groups: make(map[Key]*Cell, len(s.groups))}
	c.Total.Wall = hist.Dist{}
	for k, cell := range s.groups {
		cp := *cell
		cp.Wall = hist.Dist{}
		c.groups[k] = &cp
	}
	return json.Marshal(c)
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
