package spec

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nochatter/internal/baseline"
	"nochatter/internal/gather"
	"nochatter/internal/gossip"
	"nochatter/internal/graph"
	"nochatter/internal/randomized"
	"nochatter/internal/sim"
	"nochatter/internal/ues"
	"nochatter/internal/unknown"
)

// roundTrip pushes a spec through its serialized form and back.
func roundTrip(t *testing.T, sp ScenarioSpec) ScenarioSpec {
	t.Helper()
	buf, err := sp.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := Parse(buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return parsed
}

// mustRun compiles and runs a spec.
func mustRun(t *testing.T, sp ScenarioSpec) *sim.RunResult {
	t.Helper()
	res, err := sp.Run()
	if err != nil {
		t.Fatalf("run %q: %v", sp.Name, err)
	}
	return res
}

// TestGraphFamilyRoundTrips proves that every registered graph family
// compiles from a GraphSpec to the same graph a hand-built generator call
// produces — via the port-preserving canonical code — and that the
// completeness guard below keeps this table in sync with the registry.
func TestGraphFamilyRoundTrips(t *testing.T) {
	cases := map[string]struct {
		gs   GraphSpec
		hand *graph.Graph
	}{
		"ring":      {GraphSpec{Family: "ring", N: 6}, graph.Ring(6)},
		"path":      {GraphSpec{Family: "path", N: 5}, graph.Path(5)},
		"complete":  {GraphSpec{Family: "complete", N: 4}, graph.Complete(4)},
		"star":      {GraphSpec{Family: "star", N: 5}, graph.Star(5)},
		"grid":      {GraphSpec{Family: "grid", N: 9}, graph.Grid(3, 3)},
		"torus":     {GraphSpec{Family: "torus", N: 12, Rows: 3}, graph.Torus(3, 4)},
		"hypercube": {GraphSpec{Family: "hypercube", N: 3}, graph.Hypercube(3)},
		"tree":      {GraphSpec{Family: "tree", N: 7, Seed: 2}, graph.RandomTree(7, 2)},
		"gnp":       {GraphSpec{Family: "gnp", N: 8, P: 0.3, Seed: 5}, graph.GNP(8, 0.3, 5)},
		"barbell":   {GraphSpec{Family: "barbell", N: 3, Tail: 2}, graph.Barbell(3, 2)},
		"lollipop":  {GraphSpec{Family: "lollipop", N: 3, Tail: 2}, graph.Lollipop(3, 2)},
		"two":       {GraphSpec{Family: "two"}, graph.TwoNodes()},
	}
	for _, family := range GraphFamilies() {
		tc, ok := cases[family]
		if !ok {
			t.Errorf("registered graph family %q has no round-trip case; add one", family)
			continue
		}
		g, err := BuildGraph(tc.gs)
		if err != nil {
			t.Errorf("%s: %v", family, err)
			continue
		}
		if g.Name() != tc.hand.Name() || g.CanonicalCode() != tc.hand.CanonicalCode() {
			t.Errorf("%s: spec-built %s differs from hand-built %s", family, g.Name(), tc.hand.Name())
		}
	}
}

// TestSpecRunsBitIdenticalToHandBuilt is the round-trip property of the
// spec layer: for every registered algorithm, (hand-built scenario) and
// (spec → JSON → parse → compile) produce bit-identical RunResults. The
// baseline — centralized by construction, with no hand-built sim form —
// is covered by TestBaselineSpecMatchesCentralizedRun instead.
func TestSpecRunsBitIdenticalToHandBuilt(t *testing.T) {
	ring6 := graph.Ring(6)
	ring6Seq := ues.Build(ring6)
	ring4 := graph.Ring(4)
	ring4Seq := ues.Build(ring4)
	two := graph.TwoNodes()
	ring8 := graph.Ring(8)

	cases := map[string]struct {
		sp   ScenarioSpec
		hand sim.Scenario
	}{
		"known": {
			sp: ScenarioSpec{
				Graph: GraphSpec{Family: "ring", N: 6},
				Agents: []AgentSpec{
					{Label: 5, Start: 0, Algorithm: Known()},
					{Label: 9, Start: 3, Wake: sim.DormantUntilVisited, Algorithm: Known()},
				},
			},
			hand: sim.Scenario{Graph: ring6, Agents: []sim.AgentSpec{
				{Label: 5, Start: 0, WakeRound: 0, Program: gather.NewProgram(ring6Seq)},
				{Label: 9, Start: 3, WakeRound: sim.DormantUntilVisited, Program: gather.NewProgram(ring6Seq)},
			}},
		},
		"gossip": {
			sp: ScenarioSpec{
				Graph: GraphSpec{Family: "ring", N: 4},
				Agents: []AgentSpec{
					{Label: 1, Start: 0, Algorithm: Gossip("10")},
					{Label: 2, Start: 2, Algorithm: Gossip("1")},
				},
			},
			hand: sim.Scenario{Graph: ring4, Agents: []sim.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: gossip.NewProgram(ring4Seq, "10")},
				{Label: 2, Start: 2, WakeRound: 0, Program: gossip.NewProgram(ring4Seq, "1")},
			}},
		},
		"unknown": {
			sp: ScenarioSpec{
				Graph: GraphSpec{Family: "two"},
				Agents: []AgentSpec{
					{Label: 1, Start: 0, Algorithm: Unknown(0, 0)},
					{Label: 2, Start: 1, Algorithm: Unknown(0, 0)},
				},
			},
			hand: sim.Scenario{Graph: two, Agents: []sim.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: unknown.NewProgram(unknown.DefaultParams())},
				{Label: 2, Start: 1, WakeRound: 0, Program: unknown.NewProgram(unknown.DefaultParams())},
			}},
		},
		// The seed exceeds 2^53 on purpose: it proves 64-bit params survive
		// the JSON round trip with full precision (json.Number decoding).
		"randomized": {
			sp: ScenarioSpec{
				Graph: GraphSpec{Family: "ring", N: 8},
				Agents: []AgentSpec{
					{Label: 1, Start: 0, Algorithm: Randomized(1<<60+3, 0)},
					{Label: 2, Start: 4, Algorithm: Randomized(1<<60+3, 0)},
				},
			},
			hand: sim.Scenario{Graph: ring8, Agents: []sim.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: randomized.RendezvousProgram(1<<60+3, 100*8*8*8)},
				{Label: 2, Start: 4, WakeRound: 0, Program: randomized.RendezvousProgram(1<<60+3, 100*8*8*8)},
			}},
		},
	}
	for _, name := range Algorithms() {
		if name == "baseline" {
			continue // no hand-built sim form (see below)
		}
		tc, ok := cases[name]
		if !ok {
			t.Errorf("registered algorithm %q has no round-trip case; add one", name)
			continue
		}
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			handRes, err := sim.Run(tc.hand)
			if err != nil {
				t.Fatalf("hand-built run: %v", err)
			}
			specRes := mustRun(t, roundTrip(t, tc.sp))
			if !reflect.DeepEqual(handRes, specRes) {
				t.Errorf("spec→JSON→compile run diverges from hand-built run:\nhand %+v\nspec %+v", handRes, specRes)
			}
		})
	}
}

// TestBaselineSpecMatchesCentralizedRun checks the baseline adapter: the
// spec-compiled replay reproduces the centralized baseline.Gather outcome
// (declaration round, node, leader, AllHaltedTogether) under the agent
// engine, and is itself JSON-round-trip stable.
func TestBaselineSpecMatchesCentralizedRun(t *testing.T) {
	g := graph.Ring(6)
	want, err := baseline.Gather(g, ues.Build(g), []baseline.Spec{
		{Label: 5, Start: 0}, {Label: 9, Start: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 6},
		Agents: []AgentSpec{
			{Label: 5, Start: 0, Algorithm: Baseline()},
			{Label: 9, Start: 3, Algorithm: Baseline()},
		},
	}
	direct := mustRun(t, sp)
	viaJSON := mustRun(t, roundTrip(t, sp))
	if !reflect.DeepEqual(direct, viaJSON) {
		t.Errorf("baseline spec not JSON-round-trip stable:\ndirect %+v\nvia JSON %+v", direct, viaJSON)
	}
	if !direct.AllHaltedTogether() {
		t.Fatal("baseline replay did not gather with simultaneous declaration")
	}
	if direct.Rounds != want.Rounds || direct.Agents[0].FinalNode != want.Node {
		t.Errorf("baseline replay ended (round %d, node %d), centralized run says (round %d, node %d)",
			direct.Rounds, direct.Agents[0].FinalNode, want.Rounds, want.Node)
	}
	for _, a := range direct.Agents {
		if a.Report.Leader != want.Leader {
			t.Errorf("agent %d reports leader %d, want %d", a.Label, a.Report.Leader, want.Leader)
		}
	}
}

// TestCompiledScenarioIsReRunnable guards the contract batch replays
// rely on: one compiled scenario can be run repeatedly with
// identical results (programs are stateless closures).
func TestCompiledScenarioIsReRunnable(t *testing.T) {
	sc, err := ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 6},
		Agents: []AgentSpec{
			{Label: 5, Start: 0, Algorithm: Known()},
			{Label: 9, Start: 3, Algorithm: Known()},
		},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("re-running a compiled scenario diverged")
	}
}

// TestCompileErrors exercises the up-front validation path: every bad spec
// fails at compile time with a descriptive error, never mid-run.
func TestCompileErrors(t *testing.T) {
	agents := func(as ...AgentSpec) []AgentSpec { return as }
	cases := []struct {
		name string
		sp   ScenarioSpec
		want string
	}{
		{"unknown family", ScenarioSpec{Graph: GraphSpec{Family: "moebius", N: 5},
			Agents: agents(AgentSpec{Label: 1, Algorithm: Known()})}, "unknown graph family"},
		{"bad ring size", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 2},
			Agents: agents(AgentSpec{Label: 1, Algorithm: Known()})}, "ring needs n >= 3"},
		{"bad gnp p", ScenarioSpec{Graph: GraphSpec{Family: "gnp", N: 5, P: 1.5},
			Agents: agents(AgentSpec{Label: 1, Algorithm: Known()})}, "p must be in [0,1]"},
		{"unknown algorithm", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(AgentSpec{Label: 1, Algorithm: AlgorithmSpec{Name: "teleport"}})}, "unknown algorithm"},
		{"duplicate label", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(
				AgentSpec{Label: 3, Start: 0, Algorithm: Known()},
				AgentSpec{Label: 3, Start: 1, Algorithm: Known()})}, "duplicate agent label"},
		{"non-positive label", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(AgentSpec{Label: 0, Start: 0, Algorithm: Known()})}, "labels must be positive"},
		{"start out of range", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(AgentSpec{Label: 1, Start: 9, Algorithm: Known()})}, "start node out of range"},
		{"invalid wake", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(AgentSpec{Label: 1, Start: 0, Wake: -7, Algorithm: Known()})}, "invalid wake round"},
		{"nobody wakes", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(AgentSpec{Label: 1, Start: 0, Wake: 5, Algorithm: Known()})}, "must wake at round 0"},
		{"no agents", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4}}, "at least one agent"},
		{"unknown profile too small", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 8},
			Agents: agents(
				AgentSpec{Label: 1, Start: 0, Algorithm: Unknown(0, 0)},
				AgentSpec{Label: 2, Start: 4, Algorithm: Unknown(0, 0)})}, "profile supports at most"},
		{"baseline mixed", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(
				AgentSpec{Label: 1, Start: 0, Algorithm: Baseline()},
				AgentSpec{Label: 2, Start: 2, Algorithm: Known()})}, "cannot mix"},
		{"baseline delayed wake", ScenarioSpec{Graph: GraphSpec{Family: "ring", N: 4},
			Agents: agents(
				AgentSpec{Label: 1, Start: 0, Algorithm: Baseline()},
				AgentSpec{Label: 2, Start: 2, Wake: 3, Algorithm: Baseline()})}, "simultaneous wake-up"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sp.Compile()
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestParseRejectsUnknownFields keeps hand-edited spec files honest.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"graph": {"family": "ring", "n": 4}, "agnts": []}`)); err == nil {
		t.Error("typo'd field parsed without error")
	}
}

// TestParseRejectsTrailingContent: a double-pasted or half-truncated spec
// file must not silently run its first object.
func TestParseRejectsTrailingContent(t *testing.T) {
	doubled := `{"graph": {"family": "ring", "n": 4}, "agents": []}` + "\n" +
		`{"graph": {"family": "ring", "n": 8}, "agents": []}`
	if _, err := Parse([]byte(doubled)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing content parsed without error: %v", err)
	}
	// A trailing newline alone stays fine.
	if _, err := Parse([]byte(`{"graph": {"family": "ring", "n": 4}, "agents": []}` + "\n")); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}

// TestBadParamsFailLoudly: non-integral or negative numeric params are
// compile errors, never silent truncations.
func TestBadParamsFailLoudly(t *testing.T) {
	for name, params := range map[string]map[string]any{
		"fractional radius_cap": {"radius_cap": 2.7},
		"string radius_cap":     {"radius_cap": "big"},
	} {
		sp := ScenarioSpec{
			Graph: GraphSpec{Family: "two"},
			Agents: []AgentSpec{
				{Label: 1, Start: 0, Algorithm: AlgorithmSpec{Name: "unknown", Params: params}},
				{Label: 2, Start: 1, Algorithm: Unknown(0, 0)},
			},
		}
		if _, err := sp.Compile(); err == nil {
			t.Errorf("%s compiled without error", name)
		}
	}
	sp := ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 4},
		Agents: []AgentSpec{
			{Label: 1, Start: 0, Algorithm: AlgorithmSpec{Name: "randomized", Params: map[string]any{"seed": -1}}},
			{Label: 2, Start: 2, Algorithm: Randomized(1, 0)},
		},
	}
	if _, err := sp.Compile(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative seed compiled: %v", err)
	}
	sp = ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 4},
		Agents: []AgentSpec{
			{Label: 1, Start: 0, Algorithm: AlgorithmSpec{Name: "gossip", Params: map[string]any{"message": 101}}},
			{Label: 2, Start: 2, Algorithm: Gossip("1")},
		},
	}
	if _, err := sp.Compile(); err == nil || !strings.Contains(err.Error(), "not a string") {
		t.Errorf("numeric gossip message compiled: %v", err)
	}
}

// TestParamNumberSpellings reads json.Number params the way Parse delivers
// them: integral spellings the canonical encoding gives one key ("5.0",
// "5e0", "-0") read as that integer; fractions, out-of-range values and
// invalid literals stay errors.
func TestParamNumberSpellings(t *testing.T) {
	const fail = "error"
	for _, c := range []struct {
		num      string
		asInt    string
		asUint64 string
	}{
		{"5", "5", "5"},
		{"5.0", "5", "5"},
		{"5e0", "5", "5"},
		{"50e-1", "5", "5"},
		{"1e2", "100", "100"},
		{"-0", "0", "0"},
		{"", "0", "0"},
		{"-3.0", "-3", fail},
		{"-1", "-1", fail},
		{"1e15", "1000000000000000", "1000000000000000"},
		{"9223372036854775807", "9223372036854775807", "9223372036854775807"},
		{"9223372036854775808", fail, "9223372036854775808"},
		{"18446744073709551615", fail, "18446744073709551615"},
		{"5.5", fail, fail},
		{"1e400", fail, fail},
		{"9007199254740993.0", fail, fail},
		{"1e16", fail, fail},
		{"+5", fail, fail},
		{"0x10", fail, fail},
		{"05", fail, fail},
		{"Inf", fail, fail},
	} {
		a := AlgorithmSpec{Params: map[string]any{"x": json.Number(c.num)}}
		got := fail
		if n, err := a.ParamInt("x", 1); err == nil {
			got = strconv.Itoa(n)
		}
		if got != c.asInt {
			t.Errorf("ParamInt(%q) = %s, want %s", c.num, got, c.asInt)
		}
		got = fail
		if n, err := a.ParamUint64("x", 1); err == nil {
			got = strconv.FormatUint(n, 10)
		}
		if got != c.asUint64 {
			t.Errorf("ParamUint64(%q) = %s, want %s", c.num, got, c.asUint64)
		}
	}
}

// TestParamOutcomeFollowsKey checks that param values with one canonical
// encoding — one content address — read alike through both integer
// accessors, so a cached outcome is right for every value with that key:
// json.Number spellings, Go-built values of every integer width and both
// float sizes, and the JSON spelling of each Go value's key.
func TestParamOutcomeFollowsKey(t *testing.T) {
	var values []any
	digits := []string{"0", "5", "50", "500", "05", "1", "9"}
	for _, m := range digits {
		for _, frac := range []string{"", ".0", ".00", ".5"} {
			for _, exp := range []string{"", "e0", "e1", "e-1", "E+2", "e400"} {
				for _, sign := range []string{"", "-"} {
					values = append(values, json.Number(sign+m+frac+exp))
				}
			}
		}
	}
	var built []any
	for _, n := range []int64{0, 5, -5, 127, -128, 255, 500, 65535, -1 << 31, 1<<31 - 1,
		1<<32 + 1, 1<<53 + 1, math.MaxInt64, math.MinInt64} {
		built = append(built, int(n), int8(n), int16(n), int32(n), int64(n),
			uint(n), uint8(n), uint16(n), uint32(n), uint64(n), float32(n), float64(n))
	}
	built = append(built, uint64(math.MaxUint64), float64(math.MaxUint64),
		float64(1<<60+256), 1e17, 123456789012345678.0, 5.5, -3.0, 1e21,
		float32(5.5), float32(1e10), float32(-7))
	for _, v := range built {
		values = append(values, v)
		if canon, err := appendValue(nil, v); err == nil {
			values = append(values, json.Number(canon))
		}
	}
	type outcome struct {
		i    int
		u    uint64
		iErr bool
		uErr bool
	}
	byKey := map[string]outcome{}
	first := map[string]any{}
	for _, v := range values {
		canon, err := appendValue(nil, v)
		if err != nil {
			continue // no key, never cached
		}
		a := AlgorithmSpec{Params: map[string]any{"x": v}}
		var o outcome
		o.i, err = a.ParamInt("x", 0)
		o.iErr = err != nil
		o.u, err = a.ParamUint64("x", 0)
		o.uErr = err != nil
		if prev, ok := byKey[string(canon)]; ok && prev != o {
			t.Errorf("%T %v and %T %v share the key material %s but read %+v and %+v",
				first[string(canon)], first[string(canon)], v, v, canon, prev, o)
		}
		byKey[string(canon)], first[string(canon)] = o, v
	}
	if len(byKey) < 20 {
		t.Fatalf("only %d distinct keys; the value grid is too thin", len(byKey))
	}
}

// TestRegisterCustomAlgorithm proves user programs are first-class: a
// registered name compiles from a spec like the built-ins.
func TestRegisterCustomAlgorithm(t *testing.T) {
	withAlgorithm(t, "test-sleeper", func(ar *Artifacts, ag AgentSpec) (sim.Program, error) {
		rounds, err := ag.Algorithm.ParamInt("rounds", 1)
		if err != nil {
			return nil, err
		}
		return func(a *sim.API) sim.Report {
			a.WaitRounds(rounds)
			return sim.Report{Leader: a.Label()}
		}, nil
	})
	sp := ScenarioSpec{
		Graph: GraphSpec{Family: "two"},
		Agents: []AgentSpec{{Label: 7, Start: 0,
			Algorithm: AlgorithmSpec{Name: "test-sleeper", Params: map[string]any{"rounds": 42}}}},
	}
	res := mustRun(t, roundTrip(t, sp))
	if res.Rounds != 42 || res.Agents[0].Report.Leader != 7 {
		t.Errorf("custom algorithm run: rounds %d leader %d", res.Rounds, res.Agents[0].Report.Leader)
	}
}

// TestRegisterCustomGraphFamily proves user graph families are first-class.
func TestRegisterCustomGraphFamily(t *testing.T) {
	withGraphFamily(t, "test-triangle", func(gs GraphSpec) (*graph.Graph, error) {
		return graph.Ring(3), nil
	})
	g, err := BuildGraph(GraphSpec{Family: "test-triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Errorf("custom family built n=%d", g.N())
	}
}

// withGraphFamily registers b under name for the rest of the test and puts
// the registry back when it ends: the previous builder, or no entry.
func withGraphFamily(t *testing.T, name string, b GraphBuilderFunc) {
	t.Helper()
	graphMu.RLock()
	old, had := graphReg[name]
	graphMu.RUnlock()
	RegisterGraphFamily(name, b)
	t.Cleanup(func() {
		if had {
			RegisterGraphFamily(name, old)
			return
		}
		graphMu.Lock()
		delete(graphReg, name)
		graphMu.Unlock()
		invalidateSequences(name)
	})
}

// withAlgorithm is withGraphFamily for the algorithm registry.
func withAlgorithm(t *testing.T, name string, b ProgramBuilder) {
	t.Helper()
	algoMu.RLock()
	old, had := algoReg[name]
	algoMu.RUnlock()
	RegisterAlgorithm(name, b)
	t.Cleanup(func() {
		if had {
			RegisterAlgorithm(name, old)
			return
		}
		algoMu.Lock()
		delete(algoReg, name)
		algoMu.Unlock()
	})
}
