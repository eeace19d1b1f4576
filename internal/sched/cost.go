package sched

import "nochatter/internal/spec"

// Cost-model calibration. The engine reports, for every run, both the
// logical rounds simulated and its active rounds, the stepped rounds (the
// rest are fast-forwarded; DESIGN.md §2), and per-spec wall time tracks
// stepped rounds closely (~0.15-0.75µs per stepped round at k=2). Fitting stepped
// rounds against the spec axes over families × n ∈ [6, 64] gives:
//
//	family                      stepped rounds ≈
//	ring, torus                 195·n
//	path, tree, complete        280·n
//	grid                        500·n   (irregular: ±60% with factorization)
//	star, hypercube, gnp        385·n
//	lollipop                    555·n
//	barbell                     540·n^1.5  (two cliques joined by a bridge
//	                                        stretch the exploration sequence
//	                                        superlinearly)
//	two                         25      (the 2-node toy graph)
//
// and a team factor of roughly (k+2)/4 in wall time per stepped round
// (agents are processed per round; k=2 → 1.0x, k=6 → 2.0x measured 2.5x).
// The model deliberately ignores wake schedules: bounded wakes shift
// which rounds are stepped more than how many, and unbounded ones (an
// agent woken past the exploration period, which can push a run to its
// round cap) are exactly the outliers no pre-partition can predict — the
// pull-based dispatcher absorbs those at runtime instead. Unknown
// families get the middle coefficient so user-registered families are
// planned sanely rather than rejected.
var familyCostPerN = map[string]int64{
	"ring":      195,
	"torus":     195,
	"path":      280,
	"tree":      280,
	"complete":  280,
	"star":      385,
	"hypercube": 385,
	"gnp":       385,
	"grid":      500,
	"lollipop":  555,
}

// defaultCostPerN is the coefficient for families absent from the table.
const defaultCostPerN = 300

// specCostFloor is the minimum cost of any spec: compilation plus run
// setup cost the equivalent of roughly this many stepped rounds, so even
// a trivial spec is not free to a worker.
const specCostFloor = 1500

// maxSpecCost caps a single spec's modeled cost so that plan arithmetic
// over the service's largest admissible sweeps stays far from int64
// overflow.
const maxSpecCost = int64(1) << 40

// DefaultCost predicts the relative execution cost of one spec, in units
// of engine-stepped rounds, from the calibration table above. It is a pure
// function of the spec — the plan derived from it has to come out
// identical on every process that computes it. Absolute scale is
// irrelevant (the planner only balances ratios); what matters is tracking
// how cost moves with the spec axes.
func DefaultCost(sp spec.ScenarioSpec) int64 {
	n := int64(sp.Graph.N)
	if sp.Graph.Family == "hypercube" {
		// N is the dimension; cost scales with the 2^N nodes.
		if n > 30 {
			n = 30
		}
		n = int64(1) << uint(max(0, int(n)))
	}
	if n < 1 {
		n = 1
	}
	base, ok := familyCostPerN[sp.Graph.Family]
	if !ok {
		base = defaultCostPerN
	}
	cost := base * n
	if sp.Graph.Family == "barbell" {
		// ≈ 540·n^1.5, computed in integers: 540·n·isqrt(n²·n)/n = 540·isqrt(n³)
		cost = 540 * isqrt(n*n*n)
	}
	if k := int64(len(sp.Agents)); k > 2 {
		cost = cost * (k + 2) / 4
	}
	cost += specCostFloor
	return clampCost(cost)
}

// clampCost forces a cost into [1, maxSpecCost]: the planner's invariants
// (non-empty chunks, overflow-free budgets) hold for any cost list.
func clampCost(c int64) int64 {
	if c < 1 {
		return 1
	}
	if c > maxSpecCost {
		return maxSpecCost
	}
	return c
}

// isqrt is the integer square root (floor), by Newton's method.
func isqrt(v int64) int64 {
	if v <= 0 {
		return 0
	}
	x := v
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + v/x) / 2
	}
	return x
}
