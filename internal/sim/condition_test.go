package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// takePortLoop is the per-round form of WalkOffsets(offsets, back): the UXS
// loop, then TakePort back through the recorded entry ports.
func takePortLoop(a *API, offsets []int, back int) {
	entry := 0
	entries := make([]int, len(offsets))
	for i, x := range offsets {
		entry = a.TakePort((entry + x) % a.Degree())
		entries[i] = entry
	}
	for j := 1; j <= back; j++ {
		a.TakePort(entries[len(entries)-j])
	}
}

// positionTrace runs sc with an OnRound hook and returns every agent's node
// in every round, alongside the result.
func positionTrace(t *testing.T, sc Scenario) ([]int, *RunResult) {
	t.Helper()
	var trace []int
	sc.OnRound = func(v RoundView) { trace = append(trace, v.Positions...) }
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return trace, res
}

func TestWalkOffsetsMatchesTakePortLoop(t *testing.T) {
	// A bulk offsets-walk and its retrace must put the agent on the same
	// node in every round as the manual per-round UXS loop followed by
	// TakePort back through the recorded entries.
	g := graph.GNP(9, 0.4, 7)
	offsets := []int{1, 0, 2, 1, 3, 0, 2, 2, 1, 0}
	for _, back := range []int{0, 3, len(offsets)} {
		solo := func(walk func(a *API)) Scenario {
			return Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				walk(a)
				return Report{}
			}}}}
		}
		want, wantRes := positionTrace(t, solo(func(a *API) { takePortLoop(a, offsets, back) }))
		got, gotRes := positionTrace(t, solo(func(a *API) { a.WalkOffsets(offsets, back) }))
		if !slices.Equal(got, want) {
			t.Errorf("back %d: positions diverge:\n bulk:   %v\n manual: %v", back, got, want)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("back %d: results diverge: bulk %+v, manual %+v", back, gotRes, wantRes)
		}
		if back == len(offsets) && gotRes.Agents[0].FinalNode != 0 {
			t.Errorf("full retrace ended at node %d, want the start 0", gotRes.Agents[0].FinalNode)
		}
	}

	// A card condition that fires mid-retrace interrupts both forms in the
	// same round. On the 6-path the walker goes 0 -> 1 -> 2 -> 3 and back;
	// the other agent walks 5 -> 4 -> 3 -> 2, crossing the walker on an
	// edge in round 2, so they first share a node in round 4, on the
	// walker's first retrace move.
	path := graph.Path(6)
	fwd := []int{0, 1, 1}
	var traces [2][]int
	for i, bulk := range []bool{false, true} {
		hitAt := -1
		walker := func(a *API) Report {
			if a.RunUntil(CardAtLeast(2), func(a *API) {
				if bulk {
					a.WalkOffsets(fwd, len(fwd))
				} else {
					takePortLoop(a, fwd, len(fwd))
				}
			}) {
				hitAt = a.LocalRound()
			}
			return Report{}
		}
		other := func(a *API) Report {
			a.WalkPorts([]int{0, 0, 0})
			a.WaitRounds(5)
			return Report{}
		}
		traces[i], _ = positionTrace(t, Scenario{Graph: path, Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: walker},
			{Label: 2, Start: 5, WakeRound: 0, Program: other},
		}})
		if hitAt != 4 {
			t.Errorf("bulk=%v: interrupted at local round %d, want 4 (mid-retrace)", bulk, hitAt)
		}
	}
	if !slices.Equal(traces[1], traces[0]) {
		t.Errorf("interrupted retrace: positions diverge:\n bulk:   %v\n manual: %v", traces[1], traces[0])
	}
}

func TestWalkPortsRoundTrip(t *testing.T) {
	// An offsets walk with a full retrace must return to the start and
	// consume exactly 2·len rounds.
	g := graph.Ring(6)
	prog := func(a *API) Report {
		a.WalkOffsets([]int{1, 1, 1}, 3)
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

func TestWalkOffsetsBadBackFailsRun(t *testing.T) {
	// A retrace longer than the walk, or negative, is a program bug.
	for _, back := range []int{-1, 4} {
		prog := func(a *API) Report {
			a.WalkOffsets([]int{1, 1, 1}, back)
			return Report{}
		}
		_, err := Run(Scenario{Graph: graph.Ring(6), Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
		if err == nil || !strings.Contains(err.Error(), "agent program panicked") {
			t.Errorf("back %d: got error %v, want an agent program panic", back, err)
		}
	}
}

func TestWalksDoNotAllocate(t *testing.T) {
	// The engine retraces from one entry buffer per agent, reused across
	// walks, so a run's allocations do not grow with its number of walks.
	offsets := []int{1, 0, 1, 1, 0, 1}
	allocs := func(walks int) float64 {
		prog := func(a *API) Report {
			a.RunUntil(CardAtLeast(2), func(a *API) {
				for range walks {
					a.WalkOffsets(offsets, len(offsets))
				}
			})
			return Report{}
		}
		sc := Scenario{Graph: graph.Ring(8), Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(100); many > few {
		t.Errorf("a run of 100 EXPLO round trips allocates %v times, one of 10 allocates %v", many, few)
	}
}

func TestWalkMinCard(t *testing.T) {
	// The walker passes through an occupied middle node: the reported
	// minimum must include that meeting, and the other agent must see card 2
	// via its own condition.
	g := graph.Path(3)
	var minSeen int
	walker := func(a *API) Report {
		m := a.WalkPorts([]int{0, 0}) // 2 -> 1 -> 0
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

func TestCompiledWakeMatchesCondHolds(t *testing.T) {
	// The engine's compiled wake test must agree with the agent side's:
	// over random condition trees (all three leaf kinds, Any nested up to
	// depth 3), arming cards and wake rounds, compileWake wakes at exactly
	// the rounds and cards at which some armed condition holds.
	rng := rand.New(rand.NewSource(14))
	var tree func(depth int) Condition
	tree = func(depth int) Condition {
		switch k := rng.Intn(4); {
		case k == 3 && depth < 3:
			subs := make([]Condition, 1+rng.Intn(3))
			for i := range subs {
				subs[i] = tree(depth + 1)
			}
			return Any(subs...)
		case k == 0:
			return CardAtLeast(rng.Intn(11) - 1)
		case k == 1:
			return CardChanged()
		default:
			return LocalRoundReached(rng.Intn(40) - 3)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		wokeAt := rng.Intn(20)
		conds := make([]armedCond, rng.Intn(4))
		for i := range conds {
			conds[i] = armedCond{c: tree(0), base: rng.Intn(9)}
		}
		w := compileWake(conds, wokeAt)
		for r := wokeAt; r <= wokeAt+40; r++ {
			for card := 0; card <= 8; card++ {
				want := false
				for _, ac := range conds {
					want = want || ac.holds(card, r-wokeAt)
				}
				if got := w.wakes(r, card); got != want {
					t.Fatalf("trial %d: conds %+v armed after waking at %d: wakes(%d, card %d) = %v, want %v (window %+v)",
						trial, conds, wokeAt, r, card, got, want, w)
				}
			}
		}
	}
}

// BenchmarkWalkRetrace measures the engine on EXPLO round trips: two
// agents each walk 13 moves out and retrace them, back to back, inside a
// CardAtLeast frame the engine tests every round.
func BenchmarkWalkRetrace(b *testing.B) {
	offsets := []int{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1}
	prog := func(a *API) Report {
		a.RunUntil(CardAtLeast(3), func(a *API) {
			for range 50 {
				a.WalkOffsets(offsets, len(offsets))
			}
		})
		return Report{}
	}
	sc := Scenario{Graph: graph.Ring(16), Agents: []AgentSpec{
		{Label: 1, Start: 0, WakeRound: 0, Program: prog},
		{Label: 2, Start: 8, WakeRound: 0, Program: prog},
	}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// oneAtATime submits segs as separate calls, the form a segment run
// replaces, and returns the run's minimum as RunSegments defines it.
func oneAtATime(a *API, segs []Segment) (minCard int) {
	minCard = maxInt
	for _, s := range segs {
		switch {
		case len(s.walk) > 0:
			start := a.CurCard()
			minCard = min(minCard, start, a.WalkOffsets(s.walk, s.back))
		case s.wait > 0:
			a.WaitRounds(s.wait)
		}
	}
	if minCard == maxInt {
		return a.CurCard()
	}
	return minCard
}

func TestSegmentRunMatchesOneAtATime(t *testing.T) {
	// A segment run must behave round for round like its waits and walks
	// submitted one at a time: the same positions in every round, the same
	// results (stepped rounds and moves included), the same minimum, and
	// the same interruption round when an enclosing condition fires inside
	// a wait, inside a walk, or exactly on a segment boundary.
	g := graph.Ring(8)
	xs := []int{0, 1, 1, 1}
	segs := []Segment{WaitSegment(5), WalkSegment(xs, 4), WaitSegment(0), WalkSegment(xs[:2], 1), WaitSegment(4)}
	// The run's segments end in local rounds 5, 13, 16 and 20. The other
	// agent comes from node 3 to the runner's start in rounds 0-2 and
	// leaves again in round 6.
	other := func(a *API) Report {
		a.WalkPorts([]int{1, 1, 1})
		a.WaitRounds(3)
		a.WalkPorts([]int{0})
		a.WaitRounds(20)
		return Report{}
	}
	cases := []struct {
		name string
		cond Condition
		at   int // local round the frame fires in; -1 for none
	}{
		{"no-interrupt", CardAtLeast(5), -1},
		{"inside-wait", CardAtLeast(2), 3},
		{"inside-walk", LocalRoundReached(7), 7},
		{"on-boundary", LocalRoundReached(13), 13},
	}
	for _, c := range cases {
		type outcome struct {
			trace []int
			res   *RunResult
			min   int
			at    int
		}
		runForm := func(form func(*API, []Segment) int, stepped bool) outcome {
			var o outcome
			o.min, o.at = -1, -1
			runner := func(a *API) Report {
				if a.RunUntil(c.cond, func(a *API) { o.min = form(a, segs) }) {
					o.at = a.LocalRound()
				}
				return Report{}
			}
			sc := Scenario{Graph: g, Agents: []AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: runner},
				{Label: 2, Start: 3, WakeRound: 0, Program: other},
			}}
			if stepped {
				o.trace, o.res = positionTrace(t, sc)
				return o
			}
			var err error
			if o.res, err = Run(sc); err != nil {
				t.Fatal(err)
			}
			return o
		}
		for _, stepped := range []bool{false, true} {
			got := runForm((*API).RunSegments, stepped)
			want := runForm(oneAtATime, stepped)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (stepped %v): segment run %+v, one at a time %+v", c.name, stepped, got, want)
			}
			if got.at != c.at {
				t.Errorf("%s (stepped %v): interrupted in local round %d, want %d", c.name, stepped, got.at, c.at)
			}
		}
	}
}

func TestRandomSegmentRunsMatchOneAtATime(t *testing.T) {
	// Random segment lists, including empty segments, under random frames
	// on random graphs, beside agents taking random single steps: a run and
	// its one-at-a-time form must agree round for round.
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(6)
		g := graph.GNP(n, 0.5, rng.Int63())
		segs := make([]Segment, 1+rng.Intn(6))
		for i := range segs {
			if rng.Intn(2) == 0 {
				segs[i] = WaitSegment(rng.Intn(6))
				continue
			}
			xs := make([]int, rng.Intn(7))
			for j := range xs {
				xs[j] = rng.Intn(4)
			}
			segs[i] = WalkSegment(xs, rng.Intn(len(xs)+1))
		}
		conds := []Condition{CardAtLeast(2 + rng.Intn(2)), CardChanged(), LocalRoundReached(rng.Intn(30))}
		cond := conds[rng.Intn(len(conds))]
		starts := rng.Perm(n)[:2]
		seed := rng.Int63()
		for _, stepped := range []bool{false, true} {
			var results [2]struct {
				trace []int
				res   *RunResult
				min   int
				hit   bool
			}
			for f, form := range []func(*API, []Segment) int{(*API).RunSegments, oneAtATime} {
				o := &results[f]
				walker := func(a *API) Report {
					o.hit = a.RunUntil(cond, func(a *API) { o.min = form(a, segs) })
					return Report{}
				}
				stepper := func(a *API) Report {
					r := rand.New(rand.NewSource(seed))
					for range 40 {
						if r.Intn(2) == 0 {
							a.Wait()
						} else {
							a.TakePort(r.Intn(a.Degree()))
						}
					}
					return Report{}
				}
				sc := Scenario{Graph: g, Agents: []AgentSpec{
					{Label: 1, Start: starts[0], WakeRound: 0, Program: walker},
					{Label: 2, Start: starts[1], WakeRound: 0, Program: stepper},
				}}
				if stepped {
					o.trace, o.res = positionTrace(t, sc)
					continue
				}
				var err error
				if o.res, err = Run(sc); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("trial %d (stepped %v): segments %+v under %+v:\n run:          %+v\n one at a time: %+v",
					trial, stepped, segs, cond, results[0], results[1])
			}
		}
	}
}

func TestWalkOffsetsNegativeOffsetFailsRun(t *testing.T) {
	// A negative offset is a program bug. The walk that reaches one fails
	// the run, naming the agent, the offset and the round, as a
	// nonexistent port does; a walk interrupted before it does not. On the
	// two-node graph every offset walk alternates between the nodes, so the
	// second walk starts where the first did and reuses its route.
	prog := func(a *API) Report {
		a.RunUntil(LocalRoundReached(1), func(a *API) { a.WalkOffsets([]int{1, -1}, 0) })
		a.TakePort(0)
		a.WalkOffsets([]int{1, -1}, 1)
		return Report{}
	}
	for _, stepped := range []bool{false, true} {
		sc := Scenario{Graph: graph.TwoNodes(), Agents: []AgentSpec{{Label: 7, Start: 0, WakeRound: 0, Program: prog}}}
		if stepped {
			sc.OnRound = func(RoundView) {}
		}
		_, err := Run(sc)
		if want := "sim: agent label 7 walked negative offset -1 in round 3"; err == nil || err.Error() != want {
			t.Errorf("stepped %v: got error %v, want %q", stepped, err, want)
		}
	}
}

// BenchmarkSegmentRun measures the engine on a TZ-shaped segment run: two
// agents each run 40 segments, alternating 26-round waits and 13-move
// EXPLO round trips, as one instruction inside a CardAtLeast frame.
func BenchmarkSegmentRun(b *testing.B) {
	offsets := []int{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1}
	prog := func(a *API) Report {
		segs := make([]Segment, 40)
		for i := range segs {
			if i%2 == 0 {
				segs[i] = WaitSegment(2 * len(offsets))
			} else {
				segs[i] = WalkSegment(offsets, len(offsets))
			}
		}
		a.RunUntil(CardAtLeast(3), func(a *API) { a.RunSegments(segs) })
		return Report{}
	}
	sc := Scenario{Graph: graph.Ring(16), Agents: []AgentSpec{
		{Label: 1, Start: 0, WakeRound: 0, Program: prog},
		{Label: 2, Start: 8, WakeRound: 0, Program: prog},
	}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}
