// Differential equivalence tests for the event-driven engine: every
// scenario is run twice — once event-driven (the default) and once forced
// into per-round stepping by a no-op OnRound hook — and the complete
// RunResults (halt rounds, final nodes, woken rounds, leaders, learned
// sizes, gossip maps) must be identical. The matrix spans graph families,
// wake schedules and all three algorithm families of the paper.
package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nochatter/internal/gather"
	"nochatter/internal/gossip"
	"nochatter/internal/graph"
	"nochatter/internal/sim"
	"nochatter/internal/ues"
	"nochatter/internal/unknown"
)

// runBoth executes the scenario event-driven and force-stepped and fails the
// test on any observable divergence. It returns the event-driven result.
func runBoth(t *testing.T, name string, sc sim.Scenario) *sim.RunResult {
	t.Helper()
	res, err := runBothErr(t, name, sc)
	if err != nil {
		t.Fatalf("%s: both runs failed: %v", name, err)
	}
	return res
}

// runBothErr is runBoth for runs that may fail: the two engines must fail
// with the same error, or agree on every result.
func runBothErr(t *testing.T, name string, sc sim.Scenario) (*sim.RunResult, error) {
	t.Helper()
	event, err := sim.Run(sc)
	stepped := sc
	stepped.OnRound = func(sim.RoundView) {}
	perRound, perErr := sim.Run(stepped)
	if (err == nil) != (perErr == nil) || err != nil && err.Error() != perErr.Error() {
		t.Fatalf("%s: errors diverge: event-driven %v, per-round %v", name, err, perErr)
	}
	if err != nil {
		return nil, err
	}
	if event.Rounds != perRound.Rounds {
		t.Errorf("%s: rounds diverge: event-driven %d, per-round %d", name, event.Rounds, perRound.Rounds)
	}
	if !reflect.DeepEqual(event.Agents, perRound.Agents) {
		t.Errorf("%s: agent results diverge:\n event-driven: %+v\n per-round:    %+v",
			name, event.Agents, perRound.Agents)
	}
	if event.Moves != perRound.Moves {
		t.Errorf("%s: moves diverge: event-driven %d, per-round %d", name, event.Moves, perRound.Moves)
	}
	if event.SteppedRounds > perRound.SteppedRounds {
		t.Errorf("%s: event-driven engine stepped %d rounds, more than per-round's %d",
			name, event.SteppedRounds, perRound.SteppedRounds)
	}
	return event, nil
}

func TestDifferentialGather(t *testing.T) {
	type tc struct {
		name   string
		g      *graph.Graph
		labels []int
		starts []int
		wakes  []int // nil = all zero
		woken  []int // expected WokenRound per agent; nil = not checked
	}
	cases := []tc{
		{"two-nodes", graph.TwoNodes(), []int{1, 2}, []int{0, 1}, nil, nil},
		{"ring6", graph.Ring(6), []int{3, 5, 9}, []int{0, 2, 4}, nil, nil},
		{"ring8-delayed", graph.Ring(8), []int{5, 9}, []int{0, 4}, []int{0, 37}, nil},
		{"path5-dormant", graph.Path(5), []int{2, 7}, []int{0, 4}, []int{0, sim.DormantUntilVisited}, nil},
		{"star5", graph.Star(5), []int{1, 2, 3}, []int{1, 2, 3}, nil, nil},
		{"grid3x3-dormant", graph.Grid(3, 3), []int{4, 6}, []int{0, 8}, []int{0, sim.DormantUntilVisited}, nil},
		{"hypercube3", graph.Hypercube(3), []int{1, 2}, []int{0, 7}, nil, nil},
		{"gnp8", graph.GNP(8, 0.3, 5), []int{5, 11}, []int{0, 7}, nil, nil},
		{"torus3x3-delayed", graph.Torus(3, 3), []int{2, 9}, []int{0, 4}, []int{0, 11}, nil},
		{"tree9", graph.RandomTree(9, 3), []int{6, 8}, []int{0, 8}, []int{0, 25}, nil},
		// A visit in round 3 wakes the agent the adversary scheduled for 50.
		{"path4-visited-before-wake", graph.Path(4), []int{3, 6}, []int{0, 3}, []int{0, 50}, []int{0, 3}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seq := ues.Build(c.g)
			team := make([]sim.AgentSpec, len(c.labels))
			for i := range c.labels {
				wake := 0
				if c.wakes != nil {
					wake = c.wakes[i]
				}
				team[i] = sim.AgentSpec{
					Label: c.labels[i], Start: c.starts[i], WakeRound: wake,
					Program: gather.NewProgram(seq),
				}
			}
			res := runBoth(t, c.name, sim.Scenario{Graph: c.g, Agents: team})
			if !res.AllHaltedTogether() {
				t.Errorf("%s: agents did not gather", c.name)
			}
			if len(res.Leaders()) != 1 {
				t.Errorf("%s: leader split %v", c.name, res.Leaders())
			}
			for i, w := range c.woken {
				if got := res.Agents[i].WokenRound; got != w {
					t.Errorf("%s: agent %d woke in round %d, want %d", c.name, i, got, w)
				}
			}
		})
	}
}

func TestDifferentialGossip(t *testing.T) {
	type tc struct {
		name  string
		g     *graph.Graph
		wakes []int
	}
	cases := []tc{
		{"ring4", graph.Ring(4), nil},
		{"path4-delayed", graph.Path(4), []int{0, 9}},
		{"star4-dormant", graph.Star(4), []int{0, sim.DormantUntilVisited}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seq := ues.Build(c.g)
			msgs := []string{"1011", "0"}
			starts := []int{0, c.g.N() - 1}
			team := make([]sim.AgentSpec, 2)
			for i := range team {
				wake := 0
				if c.wakes != nil {
					wake = c.wakes[i]
				}
				team[i] = sim.AgentSpec{
					Label: i + 1, Start: starts[i], WakeRound: wake,
					Program: gossip.NewProgram(seq, msgs[i]),
				}
			}
			res := runBoth(t, c.name, sim.Scenario{Graph: c.g, Agents: team})
			for _, a := range res.Agents {
				for _, m := range msgs {
					if a.Report.Gossip[m] != 1 {
						t.Errorf("%s: agent %d gossip %v misses %q", c.name, a.Label, a.Report.Gossip, m)
					}
				}
			}
		})
	}
}

func TestDifferentialUnknownBound(t *testing.T) {
	p := unknown.DefaultParams()
	sched := unknown.NewSchedule(p)
	for _, h := range []int{1, 3, 4} {
		h := h
		// Resolved here, not in the parallel subtest: a Schedule is not
		// safe for concurrent use.
		cfg := sched.Config(h)
		t.Run(fmt.Sprintf("phi%d", h), func(t *testing.T) {
			t.Parallel()
			res := runBoth(t, fmt.Sprintf("phi%d", h),
				sim.Scenario{Graph: cfg.G, Agents: unknown.ScenarioFor(cfg, p)})
			if !res.AllHaltedTogether() {
				t.Errorf("phi%d: not gathered", h)
			}
			for _, a := range res.Agents {
				if a.Report.Size != cfg.N() {
					t.Errorf("phi%d: agent %d learned size %d, want %d", h, a.Label, a.Report.Size, cfg.N())
				}
			}
		})
	}
}

// TestDifferentialSkipIsReal asserts the event-driven engine actually
// fast-forwards: on a wait-heavy gather run it must step well under half of
// the simulated rounds.
func TestDifferentialSkipIsReal(t *testing.T) {
	g := graph.Ring(8)
	seq := ues.Build(g)
	res, err := sim.Run(sim.Scenario{
		Graph: g,
		Agents: []sim.AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: gather.NewProgram(seq)},
			{Label: 2, Start: 4, WakeRound: 0, Program: gather.NewProgram(seq)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SteppedRounds*2 >= res.Rounds {
		t.Errorf("no fast-forward win: stepped %d of %d simulated rounds", res.SteppedRounds, res.Rounds)
	}
}

// TestDifferentialQuietStretches runs walks whose quiet stretches end in
// each of the ways the engine must notice, against per-round stepping. On
// an 8-ring, offsets 0,1,1,… walk clockwise and 1,1,… counter-clockwise.
func TestDifferentialQuietStretches(t *testing.T) {
	ccw := func(n int) []int { return slices.Repeat([]int{1}, n) }
	cw := func(n int) []int { return append([]int{0}, ccw(n-1)...) }
	walk := func(xs []int, back int) sim.Program {
		return func(a *sim.API) sim.Report {
			a.WalkOffsets(xs, back)
			return sim.Report{}
		}
	}
	halt := func(a *sim.API) sim.Report { return sim.Report{} }
	type tc struct {
		name   string
		max    int // MaxRounds; 0 for the default
		agents []sim.AgentSpec
		woken  []int // expected WokenRound per agent; nil = not checked
		fails  bool  // the run ends in ErrMaxRounds
	}
	cases := []tc{
		// The walker reaches the dormant agent's node in round 4; the visit
		// wakes it mid-walk.
		{name: "visit-wakes-dormant", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: walk(cw(6), 6)},
			{Label: 2, Start: 4, WakeRound: sim.DormantUntilVisited, Program: func(a *sim.API) sim.Report {
				a.WaitRounds(5)
				return sim.Report{}
			}},
		}, woken: []int{0, 4}},
		// An adversarial wake round inside the walk ends the stretch too.
		{name: "adversary-wakes-mid-walk", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: walk(cw(6), 6)},
			{Label: 2, Start: 6, WakeRound: 3, Program: halt},
		}, woken: []int{0, 3}},
		// The walker passes a sleeping agent, which sees its card change
		// but sleeps on, and one that waits for company.
		{name: "passes-sleepers", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: walk(cw(6), 6)},
			{Label: 2, Start: 2, Program: func(a *sim.API) sim.Report {
				a.WaitRounds(30)
				return sim.Report{}
			}},
			{Label: 3, Start: 4, Program: func(a *sim.API) sim.Report {
				a.WaitUntil(sim.CardAtLeast(2))
				a.WaitRounds(2)
				return sim.Report{}
			}},
		}},
		// Two single walkers swap across an edge without ever sharing a
		// node: no card changes, so the stretch runs on.
		{name: "swap-on-edge", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: walk(cw(6), 6)},
			{Label: 2, Start: 5, Program: walk(ccw(6), 6)},
		}},
		// A group of two walks as one for two moves, then splits, as in
		// Communicate's transmit-0 step.
		{name: "group-splits", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: func(a *sim.API) sim.Report {
				a.RunSegments([]sim.Segment{sim.WaitSegment(1), sim.WalkSegment(cw(4), 4), sim.WaitSegment(3)})
				return sim.Report{}
			}},
			{Label: 2, Start: 1, Program: func(a *sim.API) sim.Report {
				a.TakePort(1) // joins agent 1 at node 0 in round 1
				a.WalkOffsets([]int{0, 1, 0, 1}, 4)
				return sim.Report{}
			}},
		}},
		// A LocalRoundReached deadline interrupts one walker mid-walk while
		// the other walks on.
		{name: "deadline-mid-walk", agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: func(a *sim.API) sim.Report {
				a.RunUntil(sim.LocalRoundReached(5), func(a *sim.API) { a.WalkOffsets(cw(7), 7) })
				a.WaitRounds(3)
				return sim.Report{}
			}},
			{Label: 2, Start: 5, Program: walk(ccw(3), 3)},
		}},
		// MaxRounds falls inside a stretch: both engines fail alike.
		{name: "max-rounds-mid-stretch", max: 7, agents: []sim.AgentSpec{
			{Label: 1, Start: 0, Program: walk(cw(7), 7)},
			{Label: 2, Start: 5, Program: walk(ccw(7), 7)},
		}, fails: true},
	}
	for _, c := range cases {
		sc := sim.Scenario{Graph: graph.Ring(8), Agents: c.agents, MaxRounds: c.max}
		res, err := runBothErr(t, c.name, sc)
		// Every case must apply some quiet rounds in bulk, or it tests
		// nothing about how stretches end.
		if _, processed, _ := sim.RunProcessed(sc); res != nil && processed >= res.SteppedRounds || res == nil && processed > c.max {
			t.Errorf("%s: processed %d rounds one by one, no quiet stretch", c.name, processed)
		}
		if c.fails {
			if !errors.Is(err, sim.ErrMaxRounds) {
				t.Errorf("%s: got %v, want ErrMaxRounds", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, w := range c.woken {
			if got := res.Agents[i].WokenRound; got != w {
				t.Errorf("%s: agent %d woke in round %d, want %d", c.name, i, got, w)
			}
		}
	}
}

// TestQuietRoundsFastForwarded asserts the quiet-round fast-forward is
// real: on a two-agent known-bound ring run, the round loop processes
// fewer than a quarter of the run's active rounds one by one.
func TestQuietRoundsFastForwarded(t *testing.T) {
	g := graph.Ring(8)
	seq := ues.Build(g)
	res, processed, err := sim.RunProcessed(sim.Scenario{
		Graph: g,
		Agents: []sim.AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: gather.NewProgram(seq)},
			{Label: 2, Start: 4, WakeRound: 0, Program: gather.NewProgram(seq)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if processed*4 >= res.SteppedRounds {
		t.Errorf("processed %d of %d active rounds one by one, want under a quarter", processed, res.SteppedRounds)
	}
}
