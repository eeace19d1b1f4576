// Public-API tests: everything a downstream user touches goes through the
// root package, so these tests double as compile-time checks that the API
// surface stays complete.
package nochatter_test

import (
	"testing"

	"nochatter"
)

func TestPublicGatherAndLeader(t *testing.T) {
	g := nochatter.Ring(6)
	seq := nochatter.BuildSequence(g)
	res, err := nochatter.Run(nochatter.Scenario{
		Graph: g,
		Agents: []nochatter.AgentSpec{
			{Label: 4, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
			{Label: 9, Start: 3, WakeRound: nochatter.DormantUntilVisited, Program: nochatter.GatherKnownUpperBound(seq)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHaltedTogether() {
		t.Fatal("not gathered")
	}
	if l := res.Leaders(); len(l) != 1 || (l[0] != 4 && l[0] != 9) {
		t.Fatalf("leaders = %v", l)
	}
}

func TestPublicGossip(t *testing.T) {
	g := nochatter.Path(4)
	seq := nochatter.BuildSequence(g)
	res, err := nochatter.Run(nochatter.Scenario{
		Graph: g,
		Agents: []nochatter.AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: nochatter.GossipKnownUpperBound(seq, "10")},
			{Label: 2, Start: 3, WakeRound: 0, Program: nochatter.GossipKnownUpperBound(seq, "0")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Agents {
		if a.Report.Gossip["10"] != 1 || a.Report.Gossip["0"] != 1 {
			t.Fatalf("agent %d gossip %v", a.Label, a.Report.Gossip)
		}
	}
}

func TestPublicUnknownBound(t *testing.T) {
	p := nochatter.DefaultUnknownParams()
	sched := nochatter.NewUnknownSchedule(p)
	cfg := sched.Config(1)
	res, err := nochatter.Run(nochatter.Scenario{
		Graph:  cfg.G,
		Agents: nochatter.UnknownScenarioFor(cfg, p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHaltedTogether() {
		t.Fatal("not gathered")
	}
	if res.Agents[0].Report.Size != cfg.N() {
		t.Fatalf("size = %d, want %d", res.Agents[0].Report.Size, cfg.N())
	}
}

func TestPublicCommunicate(t *testing.T) {
	// Build a tiny custom protocol on the exposed primitive: two co-located
	// agents exchange fixed codewords.
	g := nochatter.TwoNodes()
	seq := nochatter.BuildSequence(g)
	tm := nochatter.NewTiming(seq)
	got := map[int]string{}
	prog := func(code string) nochatter.Program {
		return func(a *nochatter.API) nochatter.Report {
			if a.Label() == 2 {
				a.TakePort(0)
			} else {
				a.Wait()
			}
			l, _ := nochatter.Communicate(a, tm, 6, code, true)
			got[a.Label()] = l
			return nochatter.Report{}
		}
	}
	_, err := nochatter.Run(nochatter.Scenario{
		Graph: g,
		Agents: []nochatter.AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: prog("110001")},
			{Label: 2, Start: 1, WakeRound: 0, Program: prog("1101")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, l := range got {
		if l != "110001" { // lexicographically smaller than "1101" at position 4
			t.Errorf("agent %d learned %q", label, l)
		}
	}
}

func TestPublicBaseline(t *testing.T) {
	g := nochatter.Ring(5)
	seq := nochatter.BuildSequence(g)
	res, err := nochatter.BaselineGather(g, seq, []nochatter.BaselineSpec{
		{Label: 3, Start: 0}, {Label: 8, Start: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 3 || res.Rounds <= 0 {
		t.Fatalf("baseline result %+v", res)
	}
}

func TestPublicGraphBuilder(t *testing.T) {
	g, err := nochatter.NewGraphBuilder("custom", 3).
		AddEdge(0, 1, 0, 0).
		AddEdge(1, 2, 1, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Diameter() != 2 {
		t.Fatalf("custom graph wrong: n=%d diam=%d", g.N(), g.Diameter())
	}
}

func TestPublicGenerators(t *testing.T) {
	gens := []*nochatter.Graph{
		nochatter.Ring(4), nochatter.Path(3), nochatter.Complete(4),
		nochatter.Star(4), nochatter.Grid(2, 2), nochatter.Torus(3, 3),
		nochatter.Hypercube(2), nochatter.RandomTree(5, 1),
		nochatter.GNP(5, 0.5, 1), nochatter.Barbell(3, 1),
		nochatter.Lollipop(3, 1), nochatter.TwoNodes(),
	}
	for _, g := range gens {
		if g.N() < 2 {
			t.Errorf("%s too small", g.Name())
		}
	}
}

func TestPaperUnknownDims(t *testing.T) {
	d := nochatter.PaperUnknownDims(2, 3, 3)
	if d.BallRadius.Int64() != 4*2*243 {
		t.Errorf("ball radius %v", d.BallRadius)
	}
}

func TestPublicConditionsAndBatch(t *testing.T) {
	// The declarative condition API and the batch runner through the façade:
	// a sweep of watcher/walker scenarios, each watcher waiting on
	// CardAtLeast engine-side.
	sizes := []int{3, 4, 5}
	scs := make([]nochatter.Scenario, len(sizes))
	for i, n := range sizes {
		n := n
		watcher := func(a *nochatter.API) nochatter.Report {
			a.WaitUntil(nochatter.Any(nochatter.CardAtLeast(2), nochatter.LocalRoundReached(1000)))
			return nochatter.Report{Leader: a.LocalRound()}
		}
		walker := func(a *nochatter.API) nochatter.Report {
			for j := 0; j < n-1; j++ {
				a.TakePort(0)
			}
			a.Wait()
			return nochatter.Report{}
		}
		scs[i] = nochatter.Scenario{
			Graph: nochatter.Path(n),
			Agents: []nochatter.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
				{Label: 2, Start: n - 1, WakeRound: 0, Program: walker},
			},
		}
	}
	for i, br := range nochatter.RunBatch(scs, nochatter.WithParallelism(2)) {
		if br.Err != nil {
			t.Fatalf("case %d: %v", i, br.Err)
		}
		// The walker needs n-1 moves to reach node 0; the watcher must
		// resume exactly then.
		if got, want := br.Result.Agents[0].Report.Leader, sizes[i]-1; got != want {
			t.Errorf("case %d: watcher resumed at local round %d, want %d", i, got, want)
		}
	}
}

func TestPublicScenarioSpec(t *testing.T) {
	// The spec form of the Quick start: scenario as data, through JSON and
	// back, compiled via the registries and bit-identical to the closure
	// form.
	sp := nochatter.ScenarioSpec{
		Graph: nochatter.GraphSpec{Family: "ring", N: 6},
		Agents: []nochatter.SpecAgent{
			{Label: 4, Start: 0, Algorithm: nochatter.KnownAlgorithm()},
			{Label: 9, Start: 3, Wake: nochatter.DormantUntilVisited, Algorithm: nochatter.KnownAlgorithm()},
		},
	}
	buf, err := sp.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := nochatter.ParseSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parsed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHaltedTogether() {
		t.Fatal("spec run did not gather")
	}

	g := nochatter.Ring(6)
	seq := nochatter.BuildSequence(g)
	hand, err := nochatter.Run(nochatter.Scenario{
		Graph: g,
		Agents: []nochatter.AgentSpec{
			{Label: 4, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
			{Label: 9, Start: 3, WakeRound: nochatter.DormantUntilVisited, Program: nochatter.GatherKnownUpperBound(seq)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != hand.Rounds || res.Agents[0].FinalNode != hand.Agents[0].FinalNode {
		t.Errorf("spec run (round %d, node %d) diverges from closure run (round %d, node %d)",
			res.Rounds, res.Agents[0].FinalNode, hand.Rounds, hand.Agents[0].FinalNode)
	}
}

func TestPublicSweepBatch(t *testing.T) {
	specs, err := nochatter.SweepDef{
		Families: []string{"ring"},
		Sizes:    []int{4, 6},
		Teams:    []nochatter.SweepTeam{{Labels: []int{1, 2}}},
		Name:     "pub-{n}",
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := nochatter.CompileSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	out := nochatter.RunBatch(scs, nochatter.WithParallelism(2))
	if len(out) != len(scs) {
		t.Fatalf("batch returned %d results, want %d", len(out), len(scs))
	}
	for i, br := range out {
		if br.Index != i {
			t.Errorf("result %d carries index %d", i, br.Index)
		}
		if br.Err != nil {
			t.Errorf("%s: %v", specs[i].Name, br.Err)
		}
	}
}

func TestPublicRunUntil(t *testing.T) {
	g := nochatter.TwoNodes()
	prog := func(a *nochatter.API) nochatter.Report {
		hit := a.RunUntil(nochatter.LocalRoundReached(7), func(a *nochatter.API) {
			a.WaitRounds(1_000_000)
		})
		if !hit {
			t.Error("want interruption at local round 7")
		}
		return nochatter.Report{}
	}
	res, err := nochatter.Run(nochatter.Scenario{
		Graph:  g,
		Agents: []nochatter.AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[0].HaltRound != 7 {
		t.Errorf("halted at %d, want 7", res.Agents[0].HaltRound)
	}
}
