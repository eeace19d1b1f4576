// Package experiments implements the evaluation suite of the reproduction:
// one experiment per claim of the paper (see DESIGN.md §5 for the index).
// The paper is pure theory — it has no empirical tables — so each experiment
// turns a theorem or complexity claim into a measured table whose SHAPE
// (correctness rate, polynomial growth, who wins) is the reproduced result.
//
// Every experiment returns a trace.Table; cmd/benchharness renders them all,
// and bench_test.go wraps each in a testing.B benchmark. Independent
// scenarios of one experiment execute on the sim worker pool (RunBatch,
// results in input order); results are deterministic regardless of
// parallelism, and row order always matches the case order.
//
// Scenario sweeps are declared as data: each gathering experiment is a
// spec.SweepDef literal (axes of graphs, teams, wake schedules and
// algorithms) whose expansion yields serializable ScenarioSpecs, compiled
// and executed by the shared runSpecs machinery.
package experiments

import (
	"fmt"

	"nochatter/internal/bits"
	"nochatter/internal/gather"
	"nochatter/internal/graph"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
	"nochatter/internal/trace"
	"nochatter/internal/tz"
	"nochatter/internal/ues"
	"nochatter/internal/unknown"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick keeps every experiment under a few seconds (CI, benchmarks).
	Quick Scale = iota
	// Full runs the sizes reported in EXPERIMENTS.md.
	Full
)

// gatherOutcome validates Theorem 3.1's postconditions on one batch result
// and extracts (declaration round, leader).
func gatherOutcome(g *graph.Graph, br sim.BatchResult) (int, int, error) {
	if br.Err != nil {
		return 0, 0, br.Err
	}
	res := br.Result
	if !res.AllHaltedTogether() {
		return 0, 0, fmt.Errorf("%s: agents did not declare together", g.Name())
	}
	leaders := res.Leaders()
	if len(leaders) != 1 {
		return 0, 0, fmt.Errorf("%s: leader split %v", g.Name(), leaders)
	}
	return res.Rounds, leaders[0], nil
}

// runSpecs compiles every spec, runs the batch on the worker pool, verifies
// Theorem 3.1's postconditions in input order, and returns the compiled
// scenarios plus (rounds, leader, sequence) per spec, or the error of the
// lowest-index spec that fails them.
func runSpecs(specs []spec.ScenarioSpec) ([]sim.Scenario, []int, []int, []*ues.Sequence, error) {
	scs, ars, err := spec.CompileAllArtifacts(specs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	seqs := make([]*ues.Sequence, len(specs))
	for i, ar := range ars {
		seqs[i] = ar.Sequence()
	}
	rounds := make([]int, len(specs))
	leaders := make([]int, len(specs))
	for i, br := range sim.RunBatch(scs) {
		r, l, err := gatherOutcome(scs[i].Graph, br)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rounds[i], leaders[i] = r, l
	}
	return scs, rounds, leaders, seqs, nil
}

// runSweep expands a sweep and executes it via runSpecs.
func runSweep(def spec.SweepDef) ([]spec.ScenarioSpec, []sim.Scenario, []int, []int, []*ues.Sequence, error) {
	specs, err := def.Specs()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	scs, rounds, leaders, seqs, err := runSpecs(specs)
	return specs, scs, rounds, leaders, seqs, err
}

// wakeKind names a spec's wake schedule the way the E1 table reports it.
func wakeKind(sp spec.ScenarioSpec) string {
	kind := "simultaneous"
	for _, ag := range sp.Agents {
		if ag.Wake == sim.DormantUntilVisited {
			return "dormant"
		}
		if ag.Wake != 0 {
			kind = "delayed"
		}
	}
	return kind
}

// E1Correctness sweeps graph families, team sizes and wake schedules and
// verifies Theorem 3.1's postconditions on every run.
func E1Correctness(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E1 — Theorem 3.1 correctness: gathering + simultaneous declaration + unique leader",
		"graph", "n", "agents", "wake", "rounds", "leader", "ok")
	def := spec.SweepDef{
		Zip:  true,
		Name: "E1-{i}-{family}",
		Graphs: []spec.GraphSpec{
			{Family: "two"},
			{Family: "ring", N: 4},
			{Family: "ring", N: 6},
			{Family: "path", N: 5},
			{Family: "star", N: 5},
			{Family: "grid", N: 9, Rows: 3},
			{Family: "hypercube", N: 3},
			{Family: "gnp", N: 8, P: 0.3, Seed: 5},
		},
		Teams: []spec.Team{
			{Labels: []int{1, 2}, Starts: []int{0, 1}},
			{Labels: []int{1, 2}, Starts: []int{0, 2}},
			{Labels: []int{3, 5, 9}, Starts: []int{0, 2, 4}},
			{Labels: []int{2, 7}, Starts: []int{0, 4}, Wakes: []int{0, 9}},
			{Labels: []int{1, 2, 3}, Starts: []int{1, 2, 3}},
			{Labels: []int{4, 6}, Starts: []int{0, 8}, Wakes: []int{0, sim.DormantUntilVisited}},
			{Labels: []int{1, 2}, Starts: []int{0, 7}},
			{Labels: []int{5, 11}, Starts: []int{0, 7}},
		},
	}
	if scale == Full {
		def.Graphs = append(def.Graphs,
			spec.GraphSpec{Family: "ring", N: 8},
			spec.GraphSpec{Family: "torus", N: 9, Rows: 3},
			spec.GraphSpec{Family: "tree", N: 9, Seed: 3},
			spec.GraphSpec{Family: "complete", N: 6},
			spec.GraphSpec{Family: "barbell", N: 3, Tail: 2},
			spec.GraphSpec{Family: "lollipop", N: 4, Tail: 3},
		)
		def.Teams = append(def.Teams,
			spec.Team{Labels: []int{1, 2, 3, 4}, Starts: []int{0, 2, 4, 6}},
			spec.Team{Labels: []int{2, 9}, Starts: []int{0, 4}},
			spec.Team{Labels: []int{6, 8}, Starts: []int{0, 8}, Wakes: []int{0, 25}},
			spec.Team{Labels: []int{1, 2, 3}, Starts: []int{0, 2, 4}},
			spec.Team{Labels: []int{4, 5}, Starts: []int{0, 6}},
			spec.Team{Labels: []int{2, 3}, Starts: []int{0, 6}},
		)
	}
	specs, scs, rounds, leaders, _, err := runSweep(def)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		g := scs[i].Graph
		t.AddRow(g.Name(), g.N(), len(sp.Agents), wakeKind(sp), rounds[i], leaders[i], "yes")
	}
	return t, nil
}

// E2TimeVsN measures gathering time against the network size on rings and
// random graphs: Theorem 3.1 claims polynomial growth in N.
func E2TimeVsN(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E2 — time vs network size N (labels fixed {1,2}): polynomial in N",
		"graph", "n", "T(EXPLO)", "rounds", "rounds/T(EXPLO)")
	sizes := []int{4, 8, 16}
	if scale == Full {
		sizes = append(sizes, 24, 32)
	}
	// The graph axis pairs each size's ring with a same-size random graph
	// seeded by n; the single two-agent team spreads to antipodal starts.
	def := spec.SweepDef{Name: "E2-{family}-n{n}", Teams: []spec.Team{{Labels: []int{1, 2}}}}
	for _, n := range sizes {
		def.Graphs = append(def.Graphs,
			spec.GraphSpec{Family: "ring", N: n},
			spec.GraphSpec{Family: "gnp", N: n, P: 0.3, Seed: int64(n)},
		)
	}
	_, scs, rounds, _, seqs, err := runSweep(def)
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		d := seqs[i].Duration()
		t.AddRow(sc.Graph.Name(), sc.Graph.N(), d, rounds[i], float64(rounds[i])/float64(d))
	}
	return t, nil
}

// E3TimeVsLabelLength measures gathering time against the bit length ℓ of
// the smallest label: Theorem 3.1 claims polynomial growth in ℓ.
func E3TimeVsLabelLength(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E3 — time vs smallest-label bit length ℓ (ring of 6): polynomial in ℓ",
		"smallest label", "ℓ (bits)", "rounds")
	smallest := []int{1, 3, 9, 33}
	if scale == Full {
		smallest = append(smallest, 129, 1025)
	}
	def := spec.SweepDef{Name: "E3-l{i}", Graphs: []spec.GraphSpec{{Family: "ring", N: 6}}}
	for _, l := range smallest {
		def.Teams = append(def.Teams, spec.Team{Labels: []int{l, l + 1}, Starts: []int{0, 3}})
	}
	_, _, rounds, _, _, err := runSweep(def)
	if err != nil {
		return nil, err
	}
	for i, l := range smallest {
		t.AddRow(l, len(bits.Bin(l)), rounds[i])
	}
	return t, nil
}

// E4TimeVsTeamSize measures gathering time against the number of agents.
func E4TimeVsTeamSize(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E4 — time vs team size k (ring of 8)",
		"k", "rounds", "leader")
	maxK := 4
	if scale == Full {
		maxK = 7
	}
	ks := make([]int, 0, maxK-1)
	for k := 2; k <= maxK; k++ {
		ks = append(ks, k)
	}
	specs, _, rounds, leaders, _, err := runSweep(spec.SweepDef{
		Name:      "E4-k{k}",
		Graphs:    []spec.GraphSpec{{Family: "ring", N: 8}},
		TeamSizes: ks,
	})
	if err != nil {
		return nil, err
	}
	for i := range specs {
		t.AddRow(len(specs[i].Agents), rounds[i], leaders[i])
	}
	return t, nil
}

// E5CommunicateCost verifies Lemma 3.1's exact duration 5·i·T(EXPLO(N)) and
// delivery for the Communicate primitive.
func E5CommunicateCost(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E5 — Communicate(i, ·, ·): exact cost 5·i·T(EXPLO) and correct delivery (Lemma 3.1)",
		"i", "T(EXPLO)", "predicted rounds", "measured rounds", "delivered")
	g := graph.Ring(5)
	seq := ues.Build(g)
	tm := gather.Timing{Seq: seq}
	is := []int{2, 4, 8}
	if scale == Full {
		is = append(is, 16, 24)
	}
	spent := make([]int, len(is))
	delivered := make([]string, len(is))
	scs := make([]sim.Scenario, len(is))
	for ci, i := range is {
		payload := bits.Code(bits.Bin(2)) // "110001", fits i >= 6
		if len(payload) > i {
			payload = bits.Code("") // "01"
		}
		var specs []sim.AgentSpec
		for a := 0; a < 2; a++ {
			specs = append(specs, sim.AgentSpec{
				Label: a + 1, Start: a, WakeRound: 0,
				Program: func(api *sim.API) sim.Report {
					if a == 1 {
						api.TakePort(1) // join agent 1 (ring port 1 = counterclockwise)
					} else {
						api.Wait()
					}
					before := api.LocalRound()
					l, _ := gather.Communicate(api, tm, i, payload, true)
					if a == 0 {
						spent[ci] = api.LocalRound() - before
						delivered[ci] = l
					}
					return sim.Report{}
				},
			})
		}
		scs[ci] = sim.Scenario{Graph: g, Agents: specs}
	}
	for _, br := range sim.RunBatch(scs) {
		if br.Err != nil {
			return nil, br.Err
		}
	}
	for ci, i := range is {
		want := gather.CommunicateDuration(tm, i)
		ok := "yes"
		if spent[ci] != want {
			ok = "NO"
		}
		t.AddRow(i, seq.Duration(), want, spent[ci], ok+" ("+delivered[ci]+")")
	}
	return t, nil
}

// E6ChatterOverhead compares chatter-free gathering against the talking
// baseline on identical scenarios.
func E6ChatterOverhead(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E6 — price of removing chatter: GatherKnownUpperBound vs talking baseline",
		"graph", "k", "chatter-free rounds", "talking rounds", "overhead")
	// The algorithm axis runs every case twice — chatter-free, then the
	// talking baseline — so the comparison is one sweep, not two code paths.
	def := spec.SweepDef{
		Zip:        true,
		Name:       "E6-{i}-{family}-{algo}",
		Algorithms: []spec.AlgorithmSpec{spec.Known(), spec.Baseline()},
		Graphs: []spec.GraphSpec{
			{Family: "ring", N: 6},
			{Family: "grid", N: 9, Rows: 3},
		},
		Teams: []spec.Team{
			{Labels: []int{5, 9}, Starts: []int{0, 3}},
			{Labels: []int{2, 7}, Starts: []int{0, 8}},
		},
	}
	if scale == Full {
		def.Graphs = append(def.Graphs,
			spec.GraphSpec{Family: "ring", N: 10},
			spec.GraphSpec{Family: "hypercube", N: 3},
			spec.GraphSpec{Family: "gnp", N: 10, P: 0.3, Seed: 7},
		)
		def.Teams = append(def.Teams,
			spec.Team{Labels: []int{3, 4, 8}, Starts: []int{0, 3, 6}},
			spec.Team{Labels: []int{1, 6}, Starts: []int{0, 7}},
			spec.Team{Labels: []int{2, 5, 11}, Starts: []int{0, 4, 9}},
		)
	}
	specs, scs, rounds, _, _, err := runSweep(def)
	if err != nil {
		return nil, err
	}
	if len(specs)%2 != 0 {
		return nil, fmt.Errorf("E6: sweep emitted %d specs, want known/baseline pairs", len(specs))
	}
	for i := 0; i+1 < len(specs); i += 2 {
		// The pairing relies on the algorithm axis being innermost; fail
		// loudly if a future edit to the sweep breaks that.
		if a, b := specs[i].Agents[0].Algorithm.Name, specs[i+1].Agents[0].Algorithm.Name; a != "known" || b != "baseline" {
			return nil, fmt.Errorf("E6: specs %d/%d carry algorithms %s/%s, want known/baseline", i, i+1, a, b)
		}
		if specs[i].Graph != specs[i+1].Graph {
			return nil, fmt.Errorf("E6: specs %d/%d compare different graphs", i, i+1)
		}
		g := scs[i].Graph
		t.AddRow(g.Name(), len(specs[i].Agents), rounds[i], rounds[i+1],
			float64(rounds[i])/float64(rounds[i+1]))
	}
	return t, nil
}

// E7GossipVsMessageLen measures gossip time against the longest message:
// Theorem 5.1 claims polynomial growth in the message length.
func E7GossipVsMessageLen(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E7 — Theorem 5.1 gossip: time vs longest message length (ring of 4)",
		"message bits", "rounds", "all learned")
	lens := []int{2, 8}
	if scale == Full {
		lens = append(lens, 32, 64)
	}
	msgs := make([]string, len(lens))
	scs := make([]sim.Scenario, len(lens))
	for ci, ln := range lens {
		msg := make([]byte, ln)
		for i := range msg {
			msg[i] = byte('0' + (i % 2))
		}
		msgs[ci] = string(msg)
		// Per-agent algorithm parameters (each agent gossips its own
		// message) are the hand-built spec form, below the SweepDef axes.
		sc, err := spec.ScenarioSpec{
			Name:  fmt.Sprintf("E7-len%d", ln),
			Graph: spec.GraphSpec{Family: "ring", N: 4},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Gossip(msgs[ci])},
				{Label: 2, Start: 2, Algorithm: spec.Gossip("1")},
			},
		}.Compile()
		if err != nil {
			return nil, err
		}
		scs[ci] = sc
	}
	for ci, br := range sim.RunBatch(scs) {
		if br.Err != nil {
			return nil, br.Err
		}
		ok := "yes"
		for _, a := range br.Result.Agents {
			if a.Report.Gossip[msgs[ci]] != 1 || a.Report.Gossip["1"] != 1 {
				ok = "NO"
			}
		}
		t.AddRow(lens[ci], br.Result.Rounds, ok)
	}
	return t, nil
}

// E8UnknownBound runs GatherUnknownUpperBound for true configurations at
// increasing positions in Ω: Theorem 4.1 claims feasibility with cost
// exponential in the hypothesis index.
func E8UnknownBound(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E8 — Theorem 4.1: no a-priori knowledge; cost grows geometrically with the Ω-index of reality",
		"φ index", "n", "labels", "T_h (phase cost)", "declared round", "leader", "size ok")
	p := unknown.DefaultParams()
	sched := unknown.NewSchedule(p)
	idx := []int{1, 3, 4}
	if scale == Full {
		idx = append(idx, 5)
	}
	scs := make([]sim.Scenario, len(idx))
	for ci, h := range idx {
		cfg := sched.Config(h)
		scs[ci] = sim.Scenario{Graph: cfg.G, Agents: unknown.ScenarioFor(cfg, p)}
	}
	for ci, br := range sim.RunBatch(scs) {
		if br.Err != nil {
			return nil, br.Err
		}
		h := idx[ci]
		cfg := sched.Config(h)
		res := br.Result
		if !res.AllHaltedTogether() {
			return nil, fmt.Errorf("φ_%d: not gathered", h)
		}
		sizeOK := "yes"
		for _, a := range res.Agents {
			if a.Report.Size != cfg.N() {
				sizeOK = "NO"
			}
		}
		t.AddRow(h, cfg.N(), fmt.Sprintf("%v", cfg.SortedLabels()),
			sched.Dim(h).T, res.Rounds, res.Agents[0].Report.Leader, sizeOK)
	}
	return t, nil
}

// E9LeaderElection verifies the leader-election by-product across a sweep:
// one leader, known to all, member of the team.
func E9LeaderElection(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E9 — leader election by-product: unique leader from the team, known to all",
		"graph", "labels", "leader", "unanimous")
	def := spec.SweepDef{
		Zip:  true,
		Name: "E9-{i}-{family}",
		Graphs: []spec.GraphSpec{
			{Family: "ring", N: 5},
			{Family: "star", N: 5},
			{Family: "grid", N: 6, Rows: 2},
		},
		Teams: []spec.Team{
			{Labels: []int{9, 4}, Starts: []int{0, 2}},
			{Labels: []int{7, 2, 5}, Starts: []int{0, 1, 2}},
			{Labels: []int{12, 30}, Starts: []int{0, 5}},
		},
	}
	if scale == Full {
		def.Graphs = append(def.Graphs,
			spec.GraphSpec{Family: "ring", N: 9},
			spec.GraphSpec{Family: "hypercube", N: 3},
		)
		def.Teams = append(def.Teams,
			spec.Team{Labels: []int{21, 14, 35}, Starts: []int{0, 3, 6}},
			spec.Team{Labels: []int{6, 10, 12, 18}, Starts: []int{0, 3, 5, 7}},
		)
	}
	specs, scs, _, leaders, _, err := runSweep(def)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		labels := make([]int, len(sp.Agents))
		member := false
		for j, ag := range sp.Agents {
			labels[j] = ag.Label
			if ag.Label == leaders[i] {
				member = true
			}
		}
		if !member {
			return nil, fmt.Errorf("%s: leader %d not in team", scs[i].Graph.Name(), leaders[i])
		}
		t.AddRow(scs[i].Graph.Name(), fmt.Sprintf("%v", labels), leaders[i], "yes")
	}
	return t, nil
}

// E10TZRendezvous verifies the rendezvous substrate's contract: distinct
// parameters meet within the bound P(N, ℓ) across delays.
func E10TZRendezvous(scale Scale) (*trace.Table, error) {
	t := trace.NewTable(
		"E10 — TZ substrate: distinct parameters meet within P(N, ℓ) for all delays ≤ T(EXPLO)/2",
		"graph", "λ1", "λ2", "delay", "met at", "bound", "within")
	g := graph.Ring(6)
	seq := ues.Build(g)
	e := seq.EffectiveLen()
	pairs := [][2]int{{0, 1}, {2, 5}}
	if scale == Full {
		pairs = append(pairs, [2]int{7, 8}, [2]int{1, 1023})
	}
	type tzCase struct {
		pr    [2]int
		delay int
		bound int
	}
	var cases []tzCase
	for _, pr := range pairs {
		for _, delay := range []int{0, e / 2, e} {
			k := 1
			for v := max(pr[0], pr[1]); v > 1; v >>= 1 {
				k++
			}
			cases = append(cases, tzCase{pr: pr, delay: delay, bound: tz.MeetBound(seq, k) + delay})
		}
	}
	met := make([]int, len(cases))
	scs := make([]sim.Scenario, len(cases))
	for ci, tc := range cases {
		met[ci] = -1
		prog := func(lambda int) sim.Program {
			return func(a *sim.API) sim.Report {
				tz.New(lambda, seq).Run(a, tc.bound+1)
				return sim.Report{}
			}
		}
		scs[ci] = sim.Scenario{
			Graph: g,
			Agents: []sim.AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: prog(tc.pr[0])},
				{Label: 2, Start: 3, WakeRound: tc.delay, Program: prog(tc.pr[1])},
			},
			OnRound: func(v sim.RoundView) {
				if met[ci] < 0 && v.Awake[0] && v.Awake[1] && v.Positions[0] == v.Positions[1] {
					met[ci] = v.Round
				}
			},
		}
	}
	for _, br := range sim.RunBatch(scs) {
		if br.Err != nil {
			return nil, br.Err
		}
	}
	for ci, tc := range cases {
		within := "yes"
		if met[ci] < 0 || met[ci] > tc.bound {
			within = "NO"
		}
		t.AddRow(g.Name(), tc.pr[0], tc.pr[1], tc.delay, met[ci], tc.bound, within)
	}
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID  string
	Run func(Scale) (*trace.Table, error)
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1Correctness},
		{"E2", E2TimeVsN},
		{"E3", E3TimeVsLabelLength},
		{"E4", E4TimeVsTeamSize},
		{"E5", E5CommunicateCost},
		{"E6", E6ChatterOverhead},
		{"E7", E7GossipVsMessageLen},
		{"E8", E8UnknownBound},
		{"E9", E9LeaderElection},
		{"E10", E10TZRendezvous},
		{"E11", E11RandomizedRendezvous},
		{"A1", A1TZBlockLayout},
		{"A2", A2SequenceStrategy},
	}
}
