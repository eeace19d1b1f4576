package sim

import (
	"errors"
	"testing"

	"nochatter/internal/graph"
)

func TestWaitUntilCardAtLeast(t *testing.T) {
	// Agent 2 walks to agent 1's node; agent 1 sits in WaitUntil(CardAtLeast)
	// and must resume exactly when the walker arrives.
	g := graph.Path(3)
	var resumedAt, waited int
	watcher := func(a *API) Report {
		waited = a.WaitUntil(CardAtLeast(2))
		resumedAt = a.LocalRound()
		return Report{}
	}
	walker := func(a *API) Report {
		a.TakePort(0) // 2 -> 1
		a.TakePort(0) // 1 -> 0
		return Report{}
	}
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
			{Label: 2, Start: 2, WakeRound: 0, Program: walker},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumedAt != 2 || waited != 2 {
		t.Errorf("resumed at local round %d after %d waited rounds, want 2 and 2", resumedAt, waited)
	}
	if res.Agents[0].HaltRound != 2 {
		t.Errorf("halt round %d, want 2", res.Agents[0].HaltRound)
	}
}

func TestWaitUntilAlreadyTrue(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		if w := a.WaitUntil(CardAtLeast(1)); w != 0 {
			t.Errorf("true-on-entry condition waited %d rounds, want 0", w)
		}
		if w := a.WaitUntil(LocalRoundReached(0)); w != 0 {
			t.Errorf("LocalRoundReached(0) waited %d rounds, want 0", w)
		}
		return Report{}
	}
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilLocalRoundReached(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.WaitUntil(LocalRoundReached(42))
		if a.LocalRound() != 42 {
			t.Errorf("resumed at local round %d, want 42", a.LocalRound())
		}
		return Report{}
	}
	res, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err != nil {
		t.Fatal(err)
	}
	// The entire 42-round wait plus the halt must cost a handful of stepped
	// rounds, not 42.
	if res.SteppedRounds > 4 {
		t.Errorf("stepped %d rounds for a pure round-based wait, want <= 4", res.SteppedRounds)
	}
}

func TestWaitUntilForBudget(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		waited, fired := a.WaitUntilFor(CardAtLeast(5), 7)
		if fired || waited != 7 {
			t.Errorf("WaitUntilFor = (%d, %v), want (7, false)", waited, fired)
		}
		if a.LocalRound() != 7 {
			t.Errorf("resumed at local round %d, want 7", a.LocalRound())
		}
		return Report{}
	}
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilCardChanged(t *testing.T) {
	// CardChanged must fire both on arrival (card up) and departure (card
	// down).
	g := graph.Path(2)
	events := []int{}
	watcher := func(a *API) Report {
		for i := 0; i < 2; i++ {
			a.WaitUntil(CardChanged())
			events = append(events, a.LocalRound(), a.CurCard())
		}
		return Report{}
	}
	mover := func(a *API) Report {
		a.WaitRounds(2)
		a.TakePort(0) // join at node 0 in round 3
		a.WaitRounds(2)
		a.TakePort(0) // leave in round 6
		return Report{}
	}
	if _, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
			{Label: 2, Start: 1, WakeRound: 0, Program: mover},
		},
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 6, 1}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestAnyCondition(t *testing.T) {
	// Any(CardAtLeast, LocalRoundReached): the round condition fires first
	// here, and the engine must fast-forward straight to it.
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.WaitUntil(Any(CardAtLeast(3), LocalRoundReached(10)))
		if a.LocalRound() != 10 {
			t.Errorf("resumed at %d, want 10", a.LocalRound())
		}
		return Report{}
	}
	res, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SteppedRounds > 4 {
		t.Errorf("stepped %d rounds, want <= 4", res.SteppedRounds)
	}
}

func TestRunUntilInterruptsBulkWait(t *testing.T) {
	// Agent 2 arrives in round 2; agent 1 is inside RunUntil with a
	// 1000-round bulk wait and must break out exactly then — without
	// stepping 1000 rounds.
	g := graph.Path(3)
	var interruptedAt int
	watcher := func(a *API) Report {
		c := a.CurCard()
		hit := a.RunUntil(
			CardAtLeast(c+1),
			func(a *API) { a.WaitRounds(1000) },
		)
		if !hit {
			t.Error("block should have been interrupted")
		}
		interruptedAt = a.LocalRound()
		return Report{}
	}
	walker := func(a *API) Report {
		a.TakePort(0) // 2 -> 1
		a.TakePort(0) // 1 -> 0
		return Report{}
	}
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
			{Label: 2, Start: 2, WakeRound: 0, Program: walker},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if interruptedAt != 2 {
		t.Errorf("interrupted at local round %d, want 2", interruptedAt)
	}
	if res.SteppedRounds > 6 {
		t.Errorf("stepped %d rounds, want <= 6", res.SteppedRounds)
	}
}

func TestRunUntilOnEntry(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		hit := a.RunUntil(CardAtLeast(1), func(a *API) { t.Error("block must not run"); a.Wait() })
		if !hit {
			t.Error("want immediate interruption")
		}
		return Report{}
	}
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedRunUntilAndClosure(t *testing.T) {
	// RunUntil frames nested with conditions of different kinds around a
	// closure block that bulk-waits: the watcher's outer and inner frames
	// pair a card condition with a round condition, and the mover's arrival
	// round decides which holds first. An outer interruption unwinds through
	// the inner frame; an inner one returns to the outer block, whose
	// condition then cuts the following wait short.
	cases := []struct {
		name               string
		outer, inner       Condition
		arrive             int // round the mover joins the watcher
		outerHit, innerHit bool
		at                 int // local round after the outer RunUntil
	}{
		{"outer-card", CardAtLeast(2), LocalRoundReached(10), 3, true, false, 3},
		{"outer-round", LocalRoundReached(3), CardAtLeast(2), 6, true, false, 3},
		{"inner-card", LocalRoundReached(8), CardAtLeast(2), 3, true, true, 8},
	}
	for _, tc := range cases {
		var outerHit, innerHit bool
		var at int
		watcher := func(a *API) Report {
			outerHit = a.RunUntil(tc.outer, func(a *API) {
				innerHit = a.RunUntil(tc.inner, func(a *API) { a.WaitRounds(100) })
				a.WaitRounds(100)
			})
			at = a.LocalRound()
			return Report{}
		}
		mover := func(a *API) Report {
			a.WaitRounds(tc.arrive - 1)
			a.TakePort(0)
			return Report{}
		}
		if _, err := Run(Scenario{
			Graph: graph.Path(2),
			Agents: []AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: watcher},
				{Label: 2, Start: 1, WakeRound: 0, Program: mover},
			},
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if outerHit != tc.outerHit || innerHit != tc.innerHit || at != tc.at {
			t.Errorf("%s: outerHit=%v innerHit=%v at local round %d, want %v %v %d",
				tc.name, outerHit, innerHit, at, tc.outerHit, tc.innerHit, tc.at)
		}
	}
}

func TestBulkWaitStallHitsMaxRounds(t *testing.T) {
	// An unbounded wait on a condition that can never fire must terminate
	// with ErrMaxRounds — and reach it by clock jump, not by grinding.
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.WaitUntil(CardAtLeast(99))
		return Report{}
	}
	_, err := Run(Scenario{
		Graph:     g,
		MaxRounds: 1_000_000,
		Agents:    []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}},
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("got %v, want ErrMaxRounds", err)
	}
}

func TestInvalidConditionPanics(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		defer func() {
			if recover() == nil {
				t.Error("zero Condition must panic")
			}
		}()
		a.WaitUntil(Condition{})
		return Report{}
	}
	// The recover above swallows the panic; the program then halts normally.
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOffsetsMatchesTakePortLoop(t *testing.T) {
	// A bulk offsets-walk must visit the same nodes and record the same
	// entries as the manual per-round UXS loop.
	g := graph.GNP(9, 0.4, 7)
	offsets := []int{1, 0, 2, 1, 3, 0, 2, 2, 1, 0}
	var manual, bulk []int
	run := func(useBulk bool, sink *[]int) {
		prog := func(a *API) Report {
			if useBulk {
				entries, _ := a.WalkOffsets(offsets)
				*sink = entries
			} else {
				entry := 0
				for _, x := range offsets {
					entry = a.TakePort((entry + x) % a.Degree())
					*sink = append(*sink, entry)
				}
			}
			return Report{}
		}
		if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
			t.Fatal(err)
		}
	}
	run(false, &manual)
	run(true, &bulk)
	if len(manual) != len(bulk) {
		t.Fatalf("entry counts differ: %v vs %v", manual, bulk)
	}
	for i := range manual {
		if manual[i] != bulk[i] {
			t.Fatalf("entries diverge at %d: %v vs %v", i, manual, bulk)
		}
	}
}

func TestWalkPortsRoundTrip(t *testing.T) {
	// Walking out and back by the recorded entries must return to the start
	// and consume exactly 2·len rounds.
	g := graph.Ring(6)
	prog := func(a *API) Report {
		entries, _ := a.WalkOffsets([]int{1, 1, 1})
		rev := make([]int, len(entries))
		for i, e := range entries {
			rev[len(entries)-1-i] = e
		}
		a.WalkPorts(rev)
		if a.LocalRound() != 6 {
			t.Errorf("round trip took %d rounds, want 6", a.LocalRound())
		}
		return Report{}
	}
	res, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[0].FinalNode != 0 {
		t.Errorf("final node %d, want 0", res.Agents[0].FinalNode)
	}
}

func TestWalkMinCard(t *testing.T) {
	// The walker passes through an occupied middle node: the reported
	// minimum must include that meeting, and the other agent must see card 2
	// via its own condition.
	g := graph.Path(3)
	var minSeen int
	walker := func(a *API) Report {
		_, m := a.WalkPorts([]int{0, 0}) // 2 -> 1 -> 0
		minSeen = m
		return Report{}
	}
	sitter := func(a *API) Report {
		a.WaitUntil(CardAtLeast(2))
		if a.LocalRound() != 1 {
			t.Errorf("sitter met at %d, want 1", a.LocalRound())
		}
		a.WaitRounds(1)
		return Report{}
	}
	if _, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 2, WakeRound: 0, Program: walker},
			{Label: 2, Start: 1, WakeRound: 0, Program: sitter},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Post-move cards: 2 at node 1 (meeting), then 1 at node 0.
	if minSeen != 1 {
		t.Errorf("min card %d, want 1", minSeen)
	}
}

func TestWalkBadPortFailsRun(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.WalkPorts([]int{0, 7})
		return Report{}
	}
	if _, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err == nil {
		t.Fatal("want error for nonexistent walked port")
	}
}

func TestWaitRoundsSingleInstruction(t *testing.T) {
	// WaitRounds(10_000) with a co-located halted agent: the engine must not
	// step the sleeping rounds.
	g := graph.TwoNodes()
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(10_000)
				return Report{}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[0].HaltRound != 10_000 {
		t.Errorf("halt round %d, want 10000", res.Agents[0].HaltRound)
	}
	if res.SteppedRounds > 4 {
		t.Errorf("stepped %d rounds for a pure bulk wait, want <= 4", res.SteppedRounds)
	}
}

func TestAdversaryWakeEndsSkip(t *testing.T) {
	// A sleeping agent and a late adversary wake: the clock must jump to the
	// wake round, process it, and both agents' results must be exact.
	g := graph.Ring(4)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(9_000)
				return Report{}
			}},
			{Label: 2, Start: 2, WakeRound: 5_000, Program: func(a *API) Report {
				a.WaitRounds(10)
				return Report{}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[1].WokenRound != 5_000 || res.Agents[1].HaltRound != 5_010 {
		t.Errorf("agent 2 woke %d halted %d, want 5000 and 5010", res.Agents[1].WokenRound, res.Agents[1].HaltRound)
	}
	if res.Agents[0].HaltRound != 9_000 {
		t.Errorf("agent 1 halted %d, want 9000", res.Agents[0].HaltRound)
	}
	if res.SteppedRounds > 8 {
		t.Errorf("stepped %d rounds, want <= 8", res.SteppedRounds)
	}
}
