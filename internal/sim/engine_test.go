package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"nochatter/internal/graph"
)

// haltAfter returns a program that waits for w rounds and halts.
func haltAfter(w int) Program {
	return func(a *API) Report {
		a.WaitRounds(w)
		return Report{}
	}
}

func TestValidation(t *testing.T) {
	g := graph.Ring(4)
	ok := AgentSpec{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(0)}
	tests := []struct {
		name   string
		sc     Scenario
		wanted error
	}{
		{"no agents", Scenario{Graph: g}, ErrNoAgents},
		{"bad label", Scenario{Graph: g, Agents: []AgentSpec{{Label: 0, Start: 0, Program: haltAfter(0)}}}, ErrBadLabel},
		{"dup label", Scenario{Graph: g, Agents: []AgentSpec{ok, {Label: 1, Start: 1, WakeRound: 0, Program: haltAfter(0)}}}, ErrDuplicateLabel},
		{"dup start", Scenario{Graph: g, Agents: []AgentSpec{ok, {Label: 2, Start: 0, WakeRound: 0, Program: haltAfter(0)}}}, ErrDuplicateStart},
		{"bad start", Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 9, WakeRound: 0, Program: haltAfter(0)}}}, ErrBadStart},
		{"no zero wake", Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 3, Program: haltAfter(0)}}}, ErrNoWake},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.sc)
			if !errors.Is(err, tt.wanted) {
				t.Fatalf("got %v, want %v", err, tt.wanted)
			}
		})
	}
}

func TestWalkAndEntryPorts(t *testing.T) {
	g := graph.Ring(5)
	var entries []int
	prog := func(a *API) Report {
		if a.EntryPort() != -1 {
			t.Error("fresh agent should have entry port -1")
		}
		for i := 0; i < 5; i++ {
			entries = append(entries, a.TakePort(0)) // clockwise
		}
		return Report{}
	}
	res, err := Run(Scenario{
		Graph:  g,
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e != 1 {
			t.Errorf("entry %d = %d, want 1", i, e)
		}
	}
	if got := res.Agents[0].FinalNode; got != 0 {
		t.Errorf("after 5 clockwise steps on a 5-ring, node = %d, want 0", got)
	}
	if res.Agents[0].HaltRound != 5 {
		t.Errorf("halt round = %d, want 5", res.Agents[0].HaltRound)
	}
}

func TestCurCardSeesAllBodies(t *testing.T) {
	// Agent 1 walks onto the start node of dormant agent 2 and must observe
	// CurCard == 2 on arrival; agent 2 must wake that round.
	g := graph.Path(3)
	var seen []int
	mover := func(a *API) Report {
		seen = append(seen, a.CurCard())
		a.TakePort(0) // node 0 -> node 1
		seen = append(seen, a.CurCard())
		return Report{}
	}
	sleeper := func(a *API) Report {
		// Woken by visit; observe and halt.
		seen = append(seen, 100+a.CurCard())
		return Report{}
	}
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: mover},
			{Label: 2, Start: 1, WakeRound: DormantUntilVisited, Program: sleeper},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 102}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
	if res.Agents[1].WokenRound != 1 {
		t.Errorf("sleeper woke at %d, want 1", res.Agents[1].WokenRound)
	}
}

func TestSimultaneousSwapDoesNotMeet(t *testing.T) {
	// Two agents crossing the same edge in opposite directions never observe
	// each other (they pass inside the edge).
	g := graph.TwoNodes()
	cards := map[int][]int{}
	prog := func(a *API) Report {
		cards[a.Label()] = append(cards[a.Label()], a.CurCard())
		a.TakePort(0)
		cards[a.Label()] = append(cards[a.Label()], a.CurCard())
		return Report{}
	}
	_, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: prog},
			{Label: 2, Start: 1, WakeRound: 0, Program: prog},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, cs := range cards {
		for i, c := range cs {
			if c != 1 {
				t.Errorf("label %d observation %d: CurCard = %d, want 1 (crossed on edge)", label, i, c)
			}
		}
	}
}

func TestBadPortFailsRun(t *testing.T) {
	g := graph.TwoNodes()
	prog := func(a *API) Report {
		a.TakePort(7)
		return Report{}
	}
	_, err := Run(Scenario{Graph: g, Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}})
	if err == nil {
		t.Fatal("want error for nonexistent port")
	}
}

func TestMaxRounds(t *testing.T) {
	g := graph.TwoNodes()
	forever := func(a *API) Report {
		for {
			a.Wait()
		}
	}
	_, err := Run(Scenario{
		Graph:     g,
		MaxRounds: 50,
		Agents:    []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: forever}},
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("got %v, want ErrMaxRounds", err)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.GNP(8, 0.4, 11)
	run := func() []int {
		var trace []int
		prog := func(a *API) Report {
			for i := 0; i < 40; i++ {
				a.TakePort((a.Label() + i) % a.Degree())
			}
			return Report{}
		}
		res, err := Run(Scenario{
			Graph: g,
			Agents: []AgentSpec{
				{Label: 3, Start: 0, WakeRound: 0, Program: prog},
				{Label: 5, Start: 4, WakeRound: 2, Program: prog},
			},
			OnRound: func(v RoundView) {
				trace = append(trace, v.Positions...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, res.Agents[0].FinalNode, res.Agents[1].FinalNode)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestNestedInterrupts(t *testing.T) {
	// RunUntil inside RunUntil: the frame whose condition holds first
	// interrupts. An outer interruption unwinds through the inner frame
	// mid-walk; an inner one hands control back to the outer block, whose
	// own condition then cuts the following wait short.
	cases := []struct {
		outer, inner       int // LocalRoundReached thresholds
		outerHit, innerHit bool
		at                 int // local round after the outer RunUntil
	}{
		{outer: 3, inner: 5, outerHit: true, innerHit: false, at: 3},
		{outer: 5, inner: 2, outerHit: true, innerHit: true, at: 5},
	}
	for _, tc := range cases {
		var outerHit, innerHit bool
		var at int
		prog := func(a *API) Report {
			outerHit = a.RunUntil(LocalRoundReached(tc.outer), func(a *API) {
				innerHit = a.RunUntil(LocalRoundReached(tc.inner), func(a *API) {
					a.WalkOffsets(make([]int, 100))
				})
				a.WaitRounds(100)
			})
			at = a.LocalRound()
			return Report{}
		}
		if _, err := Run(Scenario{Graph: graph.Ring(4), Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: prog}}}); err != nil {
			t.Fatal(err)
		}
		if outerHit != tc.outerHit || innerHit != tc.innerHit || at != tc.at {
			t.Errorf("outer %d, inner %d: outerHit=%v innerHit=%v at local round %d, want %v %v %d",
				tc.outer, tc.inner, outerHit, innerHit, at, tc.outerHit, tc.innerHit, tc.at)
		}
	}
}

func TestAllHaltedTogether(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(3)},
			{Label: 2, Start: 1, WakeRound: 0, Program: haltAfter(3)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllHaltedTogether() {
		t.Error("agents halted at different nodes; must not count as gathered")
	}
	// Same node, same round.
	join := func(a *API) Report {
		if a.Label() == 2 {
			a.TakePort(0)
			a.WaitRounds(1)
		} else {
			a.WaitRounds(2)
		}
		return Report{}
	}
	res, err = Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: join},
			{Label: 2, Start: 1, WakeRound: 0, Program: join},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHaltedTogether() {
		t.Error("want gathered: same node, same halt round")
	}
}

func TestDelayedWake(t *testing.T) {
	g := graph.Ring(4)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: haltAfter(1)},
			{Label: 2, Start: 2, WakeRound: 7, Program: haltAfter(1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agents[1].WokenRound != 7 {
		t.Errorf("woken at %d, want 7", res.Agents[1].WokenRound)
	}
	if res.Agents[1].HaltRound != 8 {
		t.Errorf("halted at %d, want 8", res.Agents[1].HaltRound)
	}
}

func TestVisitWakesScheduledAgent(t *testing.T) {
	// Agent 2 is scheduled to wake in round 50, but agent 1 reaches its
	// start node in round 3: the visit wakes it then.
	g := graph.Path(3)
	res, err := Run(Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(2)
				a.TakePort(0) // node 0 -> node 1, arriving in round 3
				a.WaitRounds(5)
				return Report{}
			}},
			{Label: 2, Start: 1, WakeRound: 50, Program: haltAfter(1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Agents[1].WokenRound; got != 3 {
		t.Errorf("visited agent woke in round %d, want 3", got)
	}
	if got := res.Agents[1].HaltRound; got != 4 {
		t.Errorf("visited agent halted in round %d, want 4", got)
	}
}

func TestAgentPanicFailsRunWithoutHanging(t *testing.T) {
	// A panicking agent program must surface as a run error promptly, and
	// stopping the other agent, suspended mid-wait, must not hang.
	g := graph.Ring(4)
	sc := Scenario{
		Graph: g,
		Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.Wait()
				panic("agent bug")
			}},
			{Label: 2, Start: 2, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(1000) // mid-bulk-wait while the other agent dies
				return Report{}
			}},
		},
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(sc)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("want error from panicking agent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after agent panic (drain deadlock)")
	}
}

// TestAbortedRunsLeaveNoGoroutines runs scenarios that fail while agent
// programs are suspended, again and again, and checks that the goroutine
// count is no higher than its baseline each time Run returns: Run must
// unwind every suspended program before it returns. (A goroutine of an
// earlier test may still be exiting, so the count may drop below the
// baseline; a leak shows as growth, compounded by every repetition.)
func TestAbortedRunsLeaveNoGoroutines(t *testing.T) {
	waiter := func(a *API) Report {
		a.WaitUntil(CardAtLeast(99))
		return Report{}
	}
	cases := []struct {
		name string
		sc   Scenario
		want error // nil: any error
	}{
		{"max rounds", Scenario{Graph: graph.Path(4), MaxRounds: 100, Agents: []AgentSpec{
			// Bounces between nodes 0 and 1, mid-walk inside RunUntil
			// when the budget runs out.
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.RunUntil(CardAtLeast(99), func(a *API) { a.WalkPorts(make([]int, 1000)) })
				return Report{}
			}},
			{Label: 2, Start: 2, WakeRound: 0, Program: waiter},
			{Label: 3, Start: 3, WakeRound: DormantUntilVisited, Program: waiter},
		}}, ErrMaxRounds},
		{"bad port mid-walk", Scenario{Graph: graph.Path(4), Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.WalkPorts([]int{0, 0, 7})
				return Report{}
			}},
			{Label: 2, Start: 3, WakeRound: 0, Program: waiter},
		}}, nil},
		{"panic", Scenario{Graph: graph.Path(4), Agents: []AgentSpec{
			{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
				a.WaitRounds(3)
				panic("agent bug")
			}},
			{Label: 2, Start: 3, WakeRound: 0, Program: func(a *API) Report {
				a.RunUntil(CardAtLeast(99), func(a *API) { a.WaitRounds(1000) })
				return Report{}
			}},
		}}, nil},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		for rep := 0; rep < 20; rep++ {
			_, err := Run(c.sc)
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("%s: got error %v, want %v", c.name, err, c.want)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s, run %d: %d goroutines after Run returned, %d before", c.name, rep, n, base)
			}
		}
	}
}
