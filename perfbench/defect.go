package main

import (
	"nochatter/internal/agg"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// The known defect: some known-bound (Algorithm 3) specs never gather. Every
// one seen has an agent with a delayed adversarial wake. Drawn from
// sweepMix's families, teams and labels, 12 of 10,800 specs with delayed
// wakes did not gather within Theorem 3.1's bound, and none of 40,000 with
// simultaneous or dormant wakes only. The engine wakes a delayed agent at
// its wake round and not when an awake agent visits it first, which may be
// the cause. The workloads draw no delayed wakes, so that their ops are
// ones the program completes; every run probes the defect instead, on the
// specs below, and reports how many still fail.

const dormant = sim.DormantUntilVisited

// defectCases are non-gathering teams with their graphs: the spec the defect
// was first found on, then one found on each other shape.
var defectCases = []struct {
	graph spec.GraphSpec
	team  [][3]int // label, start node, wake round
}{
	{spec.GraphSpec{Family: "star", N: 8}, [][3]int{{42, 0, 0}, {37, 2, 33}, {19, 5, 3}}},
	{spec.GraphSpec{Family: "star", N: 10}, [][3]int{{19, 7, 0}, {13, 0, 2}, {20, 3, 28}, {56, 4, 39}}},
	{spec.GraphSpec{Family: "grid", N: 9}, [][3]int{{38, 8, 37}, {15, 4, 9}, {2, 2, 0}, {31, 1, dormant}}},
	{spec.GraphSpec{Family: "complete", N: 4}, [][3]int{{64, 0, dormant}, {10, 1, 10}, {36, 3, 0}}},
	{spec.GraphSpec{Family: "complete", N: 5}, [][3]int{{58, 0, dormant}, {12, 4, 0}, {20, 1, 14}}},
}

// defectSpecs returns the known non-gathering specs, each with Theorem 3.1's
// bound as its round budget, so a failing run stops there instead of at the
// engine's 50M-round cap.
func defectSpecs(sh *shapes) ([]spec.ScenarioSpec, error) {
	out := make([]spec.ScenarioSpec, len(defectCases))
	for i, c := range defectCases {
		shp, err := sh.get(c.graph)
		if err != nil {
			return nil, err
		}
		agents := make([]spec.AgentSpec, len(c.team))
		for k, a := range c.team {
			agents[k] = spec.AgentSpec{Label: a[0], Start: a[1], Wake: a[2], Algorithm: spec.Known()}
		}
		out[i] = boundedKnown(shp, c.graph, agents)
	}
	return out, nil
}

// probeDefect runs defectSpecs as one sweep and returns how many of them
// still do not gather, out of how many.
func probeDefect() (failing, of int, err error) {
	specs, err := defectSpecs(newShapes())
	if err != nil {
		return 0, 0, err
	}
	sum, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		return 0, 0, err
	}
	return int(sum.Total.Runs - sum.Total.Gathered), len(specs), nil
}
