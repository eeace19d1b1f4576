package spec

import (
	"strings"
	"testing"

	"nochatter/internal/graph"
	"nochatter/internal/sim"
)

func TestSweepCartesianOrderAndNames(t *testing.T) {
	specs, err := SweepDef{
		Families:   []string{"ring", "path"},
		Sizes:      []int{4, 6},
		Teams:      []Team{{Labels: []int{1, 2}}},
		Algorithms: []AlgorithmSpec{Known(), Gossip("1")},
		Name:       "{family}-n{n}-k{k}-{algo}",
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	// graphs (families × sizes) outermost, algorithms innermost.
	want := []string{
		"ring-n4-k2-known", "ring-n4-k2-gossip",
		"ring-n6-k2-known", "ring-n6-k2-gossip",
		"path-n4-k2-known", "path-n4-k2-gossip",
		"path-n6-k2-known", "path-n6-k2-gossip",
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i, sp := range specs {
		if sp.Name != want[i] {
			t.Errorf("spec %d named %q, want %q", i, sp.Name, want[i])
		}
	}
}

func TestSweepSpreadStarts(t *testing.T) {
	specs, err := SweepDef{
		Graphs: []GraphSpec{{Family: "ring", N: 8}},
		Teams:  []Team{{Labels: []int{1, 2}}},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	ag := specs[0].Agents
	if ag[0].Start != 0 || ag[1].Start != 4 {
		t.Errorf("spread starts %d,%d, want antipodal 0,4", ag[0].Start, ag[1].Start)
	}
}

// TestSweepBuildsEachGraphOnce: spreading start-less teams needs each
// graph's node count, read from one build per graph however many teams
// share it; a team with explicit starts needs no build at all.
func TestSweepBuildsEachGraphOnce(t *testing.T) {
	builds := map[int]int{}
	withGraphFamily(t, "test-counted", func(gs GraphSpec) (*graph.Graph, error) {
		builds[gs.N]++
		return graph.Ring(gs.N), nil
	})
	specs, err := SweepDef{
		Families: []string{"test-counted"},
		Sizes:    []int{6, 9},
		Teams: []Team{
			{Labels: []int{1, 2}},
			{Labels: []int{1, 2, 3}},
			{Labels: []int{4, 5}},
			{Labels: []int{1, 2}, Starts: []int{0, 1}},
		},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("got %d specs, want 8", len(specs))
	}
	if builds[6] != 1 || builds[9] != 1 || len(builds) != 2 {
		t.Errorf("graph builds by size: %v, want one each for 6 and 9", builds)
	}
	if ag := specs[5].Agents; ag[0].Start != 0 || ag[1].Start != 3 || ag[2].Start != 6 {
		t.Errorf("spread starts on n=9 for k=3: %v", ag)
	}
}

func TestSweepZip(t *testing.T) {
	specs, err := SweepDef{
		Zip:    true,
		Graphs: []GraphSpec{{Family: "ring", N: 4}, {Family: "path", N: 5}},
		Teams: []Team{
			{Labels: []int{1, 2}, Starts: []int{0, 2}},
			{Labels: []int{3, 4, 5}, Starts: []int{0, 2, 4}},
		},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || len(specs[0].Agents) != 2 || len(specs[1].Agents) != 3 {
		t.Fatalf("zip did not pair axes index-wise: %+v", specs)
	}
	if _, err := (SweepDef{
		Zip:    true,
		Graphs: []GraphSpec{{Family: "ring", N: 4}},
		Teams:  []Team{{Labels: []int{1}}, {Labels: []int{2}}},
	}).Specs(); err == nil || !strings.Contains(err.Error(), "equally long") {
		t.Errorf("zip length mismatch not rejected: %v", err)
	}
}

func TestSweepWakeSchedulesAndTeamSizes(t *testing.T) {
	specs, err := SweepDef{
		Graphs:    []GraphSpec{{Family: "ring", N: 8}},
		TeamSizes: []int{2},
		Wakes:     [][]int{nil, {0, 9}, {0, sim.DormantUntilVisited}},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if specs[0].Agents[1].Wake != 0 || specs[1].Agents[1].Wake != 9 ||
		specs[2].Agents[1].Wake != sim.DormantUntilVisited {
		t.Errorf("wake schedules not applied: %+v", specs)
	}
	// TeamSizes packs labels 1..k at nodes 0..k-1.
	if specs[0].Agents[0].Label != 1 || specs[0].Agents[1].Label != 2 ||
		specs[0].Agents[0].Start != 0 || specs[0].Agents[1].Start != 1 {
		t.Errorf("TeamSizes team malformed: %+v", specs[0].Agents)
	}
}

func TestSweepEmptyAxesRejected(t *testing.T) {
	if _, err := (SweepDef{Teams: []Team{{Labels: []int{1}}}}).Specs(); err == nil {
		t.Error("sweep without graphs not rejected")
	}
	if _, err := (SweepDef{Families: []string{"ring"}, Sizes: []int{4}}).Specs(); err == nil {
		t.Error("sweep without teams not rejected")
	}
}

// TestSweepSpecsCompileAndGather is the end-to-end check: a sweep's specs
// compile and the compiled scenarios actually gather.
func TestSweepSpecsCompileAndGather(t *testing.T) {
	specs, err := SweepDef{
		Families: []string{"ring", "star"},
		Sizes:    []int{4, 5},
		Teams:    []Team{{Labels: []int{2, 7}}},
		Name:     "sweep-{family}-{n}",
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]sim.Scenario, len(specs))
	for i, sp := range specs {
		if scs[i], err = sp.Compile(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	for _, br := range sim.RunBatch(scs) {
		if br.Err != nil {
			t.Fatalf("%s: %v", specs[br.Index].Name, br.Err)
		}
		if !br.Result.AllHaltedTogether() {
			t.Errorf("%s: did not gather", specs[br.Index].Name)
		}
	}
}
