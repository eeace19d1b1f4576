// Package ues implements the EXPLO(N) procedure of the paper: a universal
// exploration sequence walk with an effective half (visits every node of the
// graph from any start) and a backtrack half (retraces the effective half in
// reverse, returning to the start).
//
// The paper instantiates EXPLO with Reingold's log-space universal
// exploration sequences (UXS). Constructing genuine UXS is out of scope for
// any practical system, so this package substitutes a per-run sequence with
// the identical contract (see DESIGN.md, substitution 1):
//
//   - one fixed offset sequence shared by all agents of the run,
//   - following it from ANY start node of the run's graph visits all nodes,
//   - the walk obeys the UXS rule q = (p + x_i) mod d,
//   - total duration T(EXPLO) = 2·E rounds is a public constant of the run.
//
// Build proves cover-from-every-start by exhaustive simulation, so the
// contract is checked, not assumed.
package ues

import (
	"nochatter/internal/graph"
	"nochatter/internal/sim"
)

// Sequence is a universal exploration offset sequence for one run.
type Sequence struct {
	offsets []int
}

// EffectiveLen returns E, the number of moves of the effective half.
func (s *Sequence) EffectiveLen() int { return len(s.offsets) }

// Duration returns T(EXPLO) = 2·E, the total number of rounds of one full
// execution (effective + backtrack).
func (s *Sequence) Duration() int { return 2 * len(s.offsets) }

// Offsets returns a copy of the raw offsets (for inspection and tests).
func (s *Sequence) Offsets() []int {
	out := make([]int, len(s.offsets))
	copy(out, s.offsets)
	return out
}

// walker tracks a simulated walk during construction.
type walker struct {
	node    int
	entry   int // entry port of current node (0 at start, per the walk rule)
	covered []bool
	nCov    int
}

func (w *walker) visit(v int) {
	if !w.covered[v] {
		w.covered[v] = true
		w.nCov++
	}
}

func (w *walker) apply(g *graph.Graph, offset int) {
	d := g.Degree(w.node)
	q := (w.entry + offset) % d
	to, entry := g.Traverse(w.node, q)
	w.node = to
	w.entry = entry
	w.visit(to)
}

// Build constructs a sequence that covers g from every start node. The
// construction is deterministic: a greedy coverage step when some offset
// uncovers new nodes, otherwise a BFS-directed step for the first walker
// that still has uncovered nodes (the Hybrid strategy; see BuildWith for
// the A2 ablation alternatives).
func Build(g *graph.Graph) *Sequence {
	return BuildWith(g, Hybrid)
}

// directedOffset picks the offset that moves the first incomplete walker one
// BFS step toward its nearest uncovered node.
func directedOffset(g *graph.Graph, walkers []*walker) int {
	var w *walker
	for _, cand := range walkers {
		if cand.nCov < len(cand.covered) {
			w = cand
			break
		}
	}
	if w == nil {
		return 0
	}
	// BFS from w.node to the nearest uncovered node; take the first port of a
	// shortest path toward it.
	dist := g.Distances(w.node)
	target, bestDist := -1, -1
	for v, cov := range w.covered {
		if !cov && (bestDist < 0 || dist[v] < bestDist || (dist[v] == bestDist && v < target)) {
			target, bestDist = v, dist[v]
		}
	}
	distToTarget := g.Distances(target)
	d := g.Degree(w.node)
	for q := 0; q < d; q++ {
		to, _ := g.Traverse(w.node, q)
		if distToTarget[to] == distToTarget[w.node]-1 {
			return ((q-w.entry)%d + d) % d
		}
	}
	return 0
}

// CoversFromEveryStart verifies the sequence contract on g by simulation.
func (s *Sequence) CoversFromEveryStart(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		w := &walker{node: v, entry: 0, covered: make([]bool, g.N())}
		w.visit(v)
		for _, x := range s.offsets {
			w.apply(g, x)
		}
		if w.nCov < g.N() {
			return false
		}
	}
	return true
}

// Explo runs a full EXPLO (effective + backtrack), consuming exactly
// Duration() rounds, and leaves the agent where it started. The whole
// execution is ONE engine-side walk (sim.API.WalkOffsets with a full
// retrace): the engine computes every port and retraces the effective half
// along the walk's own trajectory, so an EXPLO costs one agent handoff
// instead of 2·E.
func (s *Sequence) Explo(a *sim.API) {
	a.WalkOffsets(s.offsets, len(s.offsets))
}

// ExploMinCard runs a full EXPLO and returns the smallest CurCard observed
// at its start and after each of the 2·E moves (the paper's "smallest value
// reached by CurCard during the latest execution of EXPLO").
func (s *Sequence) ExploMinCard(a *sim.API) int {
	start := a.CurCard()
	return min(start, a.WalkOffsets(s.offsets, len(s.offsets)))
}

// ExploSegment is a full EXPLO as one segment of a run
// (sim.API.RunSegments), whose minimum then covers the EXPLO as
// ExploMinCard's does.
func (s *Sequence) ExploSegment() sim.Segment {
	return sim.WalkSegment(s.offsets, len(s.offsets))
}

// ExploPartialSegment is only the first n rounds of an EXPLO (n <=
// Duration()) as one segment of a run: the truncated prefix of the
// effective half followed by the truncated prefix of the backtrack.
// Rendezvous schedules use it for explore windows cut short by their round
// budget.
func (s *Sequence) ExploPartialSegment(n int) sim.Segment {
	e := len(s.offsets)
	return sim.WalkSegment(s.offsets[:min(n, e)], max(0, n-e))
}
