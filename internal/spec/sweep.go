package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Team is the team axis of a sweep: labels plus optional explicit start
// nodes and wake rounds. Nil Starts spreads the team evenly over the graph
// (agent i at node ⌊i·N/k⌋); nil Wakes wakes everyone at round 0.
type Team struct {
	Labels []int `json:"labels"`
	Starts []int `json:"starts,omitempty"`
	Wakes  []int `json:"wakes,omitempty"`
}

// TeamOfSize returns the canonical k-agent team: labels 1..k at nodes
// 0..k-1 — the team-size axis of sweeps like experiment E4.
func TeamOfSize(k int) Team {
	labels := make([]int, k)
	starts := make([]int, k)
	for i := 0; i < k; i++ {
		labels[i] = i + 1
		starts[i] = i
	}
	return Team{Labels: labels, Starts: starts}
}

// Specs expands the definition into its scenario specs, in a fixed order:
// the Explicit list first, then the axis product with graphs outermost
// (Graphs, then Families × Sizes), then teams (Teams, then TeamSizes),
// then wake schedules, and algorithms innermost. Zip pairs the graph and
// team axes index-wise instead of multiplying them. A definition with
// explicit specs and no axis field expands to a copy of that list; one
// with neither fails for want of graphs.
func (d SweepDef) Specs() ([]ScenarioSpec, error) {
	if len(d.Explicit) > 0 && len(d.Graphs)+len(d.Families)+len(d.Sizes)+len(d.Teams)+
		len(d.TeamSizes)+len(d.Wakes)+len(d.Algorithms) == 0 {
		return append([]ScenarioSpec(nil), d.Explicit...), nil
	}
	// Definitions arrive as untrusted JSON: a bad team size is an error,
	// never a panic in TeamOfSize.
	for _, k := range d.TeamSizes {
		if k < 1 {
			return nil, fmt.Errorf("spec: sweep team size %d is not positive", k)
		}
	}
	graphs := append([]GraphSpec(nil), d.Graphs...)
	for _, fam := range d.Families {
		for _, n := range d.Sizes {
			graphs = append(graphs, GraphSpec{Family: fam, N: n})
		}
	}
	teams := append([]Team(nil), d.Teams...)
	for _, k := range d.TeamSizes {
		teams = append(teams, TeamOfSize(k))
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("spec: sweep has no graphs (use Graphs or Families+Sizes)")
	}
	if len(teams) == 0 {
		return nil, fmt.Errorf("spec: sweep has no teams (use Teams or TeamSizes)")
	}
	if d.Zip && len(graphs) != len(teams) {
		return nil, fmt.Errorf("spec: Zip needs equally long graph and team axes, got %d graphs and %d teams",
			len(graphs), len(teams))
	}
	wakes := d.Wakes
	if len(wakes) == 0 {
		wakes = [][]int{nil}
	}
	algos := d.Algorithms
	if len(algos) == 0 {
		algos = []AlgorithmSpec{Known()}
	}
	out := append([]ScenarioSpec(nil), d.Explicit...)
	i := 0                            // axis spec index, the {i} placeholder
	nodes := make([]int, len(graphs)) // built graph sizes; 0 until a spread team needs one
	emit := func(gi int, team Team) error {
		gs := graphs[gi]
		// Spread starts depend only on (graph, team): resolve them once,
		// not per wake × algorithm combination, and build each graph at
		// most once for its node count.
		starts := team.Starts
		if starts == nil {
			if len(team.Labels) == 0 {
				return fmt.Errorf("spec: sweep team %v has no labels", team)
			}
			if nodes[gi] == 0 {
				g, err := BuildGraph(gs)
				if err != nil {
					return err
				}
				nodes[gi] = g.N()
			}
			starts = spread(nodes[gi], len(team.Labels))
		}
		for wi, wake := range wakes {
			for _, algo := range algos {
				sp, err := d.buildSpec(gs, team, starts, wake, algo, i, wi)
				if err != nil {
					return err
				}
				out = append(out, sp)
				i++
			}
		}
		return nil
	}
	for gi := range graphs {
		if d.Zip {
			if err := emit(gi, teams[gi]); err != nil {
				return nil, err
			}
			continue
		}
		for _, team := range teams {
			if err := emit(gi, team); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SpreadStarts returns the default start placement for a k-agent team on
// the given graph: agent j at node ⌊j·N/k⌋, spreading the team evenly.
// It is the single source of the spread policy, shared by sweeps and
// cmd/gathersim. The spread needs the built graph's size, which for most
// families is gs.N but not for all (hypercube, grid shapes), so the graph
// is built through the registry. A dense graph is costly to build, so a
// caller placing several teams on one graph should read its size once, as
// SweepDef.Specs does.
func SpreadStarts(gs GraphSpec, k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("spec: spread needs a positive team size, got %d", k)
	}
	g, err := BuildGraph(gs)
	if err != nil {
		return nil, err
	}
	return spread(g.N(), k), nil
}

// spread places k agents evenly over n nodes.
func spread(n, k int) []int {
	starts := make([]int, k)
	for j := range starts {
		starts[j] = (j * n) / k
	}
	return starts
}

// buildSpec assembles one spec of the product; a nil wake keeps the team's
// own Wakes.
func (d SweepDef) buildSpec(gs GraphSpec, team Team, starts []int, wake []int, algo AlgorithmSpec, i, wi int) (ScenarioSpec, error) {
	k := len(team.Labels)
	if k == 0 {
		return ScenarioSpec{}, fmt.Errorf("spec: sweep team %v has no labels", team)
	}
	if wake == nil {
		wake = team.Wakes
	}
	if len(starts) != k || (wake != nil && len(wake) != k) {
		return ScenarioSpec{}, fmt.Errorf("spec: sweep team labels/starts/wakes length mismatch (%d/%d/%d)",
			k, len(starts), len(wake))
	}
	agents := make([]AgentSpec, k)
	for j := 0; j < k; j++ {
		w := 0
		if wake != nil {
			w = wake[j]
		}
		agents[j] = AgentSpec{Label: team.Labels[j], Start: starts[j], Wake: w, Algorithm: algo}
	}
	return ScenarioSpec{
		Name:      expandName(d.Name, gs, k, algo, i, wi),
		Graph:     gs,
		Agents:    agents,
		MaxRounds: d.MaxRounds,
	}, nil
}

// expandName fills the {placeholder}s of a name template.
func expandName(template string, gs GraphSpec, k int, algo AlgorithmSpec, i, wi int) string {
	if template == "" {
		return ""
	}
	return strings.NewReplacer(
		"{i}", strconv.Itoa(i),
		"{family}", gs.Family,
		"{n}", strconv.Itoa(gs.N),
		"{k}", strconv.Itoa(k),
		"{algo}", algo.Name,
		"{wake}", strconv.Itoa(wi),
	).Replace(template)
}
