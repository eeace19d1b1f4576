package spec_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

const goldenSweepsFile = "testdata/golden_sweeps.txt"

// goldenSweeps is the fixed corpus of sweep definitions whose expansion
// TestGoldenSweepExpansion pins: every axis alone and combined, Zip, team
// lists followed by team sizes, wake schedules with nil entries,
// parameterized algorithms, the round budget and every name placeholder,
// spread starts on shaped graphs, explicit spec lists with and without
// axes, and each way a definition is rejected.
func goldenSweeps() []struct {
	name string
	def  spec.SweepDef
} {
	pair := spec.Team{Labels: []int{1, 2}}
	explicit := []spec.ScenarioSpec{
		{Name: "x-ring", Graph: spec.GraphSpec{Family: "ring", N: 6}, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 3, Wake: 4, Algorithm: spec.Known()},
		}},
		{Graph: spec.GraphSpec{Family: "two"}, MaxRounds: 50, Agents: []spec.AgentSpec{
			{Label: 3, Start: 1, Algorithm: spec.Gossip("10")},
		}},
	}
	return []struct {
		name string
		def  spec.SweepDef
	}{
		{"families-sizes", spec.SweepDef{Families: []string{"ring", "path"}, Sizes: []int{4, 6}, Teams: []spec.Team{pair}}},
		{"graphs", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "ring", N: 5}, {Family: "gnp", N: 8, P: 0.4, Seed: 7}, {Family: "two"}},
			Teams:  []spec.Team{{Labels: []int{1, 2}, Starts: []int{0, 1}}},
		}},
		{"graphs-then-families", spec.SweepDef{
			Graphs:    []spec.GraphSpec{{Family: "star", N: 5}},
			Families:  []string{"complete", "barbell"},
			Sizes:     []int{4, 5},
			TeamSizes: []int{2},
		}},
		{"teams", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "ring", N: 8}},
			Teams:  []spec.Team{{Labels: []int{3, 5, 7}, Starts: []int{0, 1, 2}}, {Labels: []int{2, 9}}},
		}},
		{"team-sizes", spec.SweepDef{Graphs: []spec.GraphSpec{{Family: "path", N: 6}}, TeamSizes: []int{1, 2, 3, 4}}},
		{"teams-then-team-sizes", spec.SweepDef{
			Graphs:    []spec.GraphSpec{{Family: "ring", N: 6}},
			Teams:     []spec.Team{{Labels: []int{4, 6}, Starts: []int{0, 3}}},
			TeamSizes: []int{3, 2},
		}},
		{"team-wakes", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "ring", N: 6}},
			Teams:  []spec.Team{{Labels: []int{1, 2}, Wakes: []int{0, 5}}},
		}},
		{"wakes", spec.SweepDef{
			Graphs:    []spec.GraphSpec{{Family: "ring", N: 8}},
			TeamSizes: []int{2},
			Wakes:     [][]int{nil, {0, 9}, {0, sim.DormantUntilVisited}},
		}},
		{"wakes-over-team-wakes", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "ring", N: 6}},
			Teams:  []spec.Team{{Labels: []int{1, 2}, Wakes: []int{0, 5}}, pair},
			Wakes:  [][]int{{3, 0}, nil},
		}},
		{"algorithms", spec.SweepDef{
			Graphs:    []spec.GraphSpec{{Family: "ring", N: 6}},
			TeamSizes: []int{2},
			Algorithms: []spec.AlgorithmSpec{
				spec.Known(), spec.Gossip("101"), spec.Unknown(2, 3),
				spec.Randomized(1<<60+3, 0), spec.Randomized(9, 500), spec.Baseline(),
			},
		}},
		{"max-rounds", spec.SweepDef{Families: []string{"star"}, Sizes: []int{4}, Teams: []spec.Team{pair}, MaxRounds: 123}},
		{"placeholders", spec.SweepDef{
			Name:       "{i}-{family}-n{n}-k{k}-{algo}-w{wake}",
			Families:   []string{"ring", "path"},
			Sizes:      []int{5, 7},
			Teams:      []spec.Team{{Labels: []int{9, 8, 7}}},
			TeamSizes:  []int{3},
			Wakes:      [][]int{nil, {0, 1, 2}},
			Algorithms: []spec.AlgorithmSpec{spec.Known(), spec.Baseline()},
		}},
		{"placeholders-repeated", spec.SweepDef{
			Name:     "{family}{family}-{i}{i}-{unknown}",
			Families: []string{"ring"},
			Sizes:    []int{4, 5},
			Teams:    []spec.Team{pair},
		}},
		{"fixed-name", spec.SweepDef{Name: "same", Families: []string{"ring"}, Sizes: []int{4, 5}, Teams: []spec.Team{pair}}},
		{"zip", spec.SweepDef{
			Zip:    true,
			Graphs: []spec.GraphSpec{{Family: "ring", N: 4}, {Family: "path", N: 5}},
			Teams:  []spec.Team{{Labels: []int{1, 2}, Starts: []int{0, 2}}, {Labels: []int{3, 4, 5}, Starts: []int{0, 2, 4}}},
		}},
		{"zip-families-team-sizes", spec.SweepDef{
			Zip:       true,
			Name:      "z{i}-{family}{n}-k{k}",
			Graphs:    []spec.GraphSpec{{Family: "star", N: 6}},
			Families:  []string{"ring"},
			Sizes:     []int{4, 6},
			Teams:     []spec.Team{{Labels: []int{8, 9}}},
			TeamSizes: []int{2, 3},
		}},
		{"zip-wakes-algorithms", spec.SweepDef{
			Zip:        true,
			Name:       "{i}-{algo}-w{wake}",
			Graphs:     []spec.GraphSpec{{Family: "ring", N: 6}, {Family: "grid", N: 9, Rows: 3}},
			Teams:      []spec.Team{{Labels: []int{5, 9}, Starts: []int{0, 3}}, {Labels: []int{2, 7}, Starts: []int{0, 8}}},
			Wakes:      [][]int{nil, {0, 4}},
			Algorithms: []spec.AlgorithmSpec{spec.Known(), spec.Baseline()},
		}},
		{"combined", spec.SweepDef{
			Name:       "c-{family}-{n}-{k}-{algo}-{wake}-{i}",
			Graphs:     []spec.GraphSpec{{Family: "tree", N: 7, Seed: 3}},
			Families:   []string{"ring", "star"},
			Sizes:      []int{5, 8},
			Teams:      []spec.Team{pair, {Labels: []int{4, 6}, Starts: []int{1, 2}, Wakes: []int{2, 0}}},
			TeamSizes:  []int{2},
			Wakes:      [][]int{nil, {0, 7}, {sim.DormantUntilVisited, 0}},
			Algorithms: []spec.AlgorithmSpec{spec.Known(), spec.Randomized(1<<60+3, 0)},
			MaxRounds:  9999,
		}},
		{"spread-grid", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "grid", N: 12, Rows: 3}, {Family: "grid", N: 9}, {Family: "grid", N: 7}},
			Teams:  []spec.Team{{Labels: []int{1, 2, 3}}},
		}},
		{"spread-torus", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "torus", N: 12}, {Family: "torus", N: 16, Rows: 4}},
			Teams:  []spec.Team{pair, {Labels: []int{5, 6, 7, 8}}},
		}},
		{"spread-hypercube", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "hypercube", N: 3}, {Family: "hypercube", N: 4}},
			Teams:  []spec.Team{{Labels: []int{1, 2, 3}}, {Labels: []int{7, 9, 11, 13, 15}}},
		}},
		{"explicit-only", spec.SweepDef{Explicit: explicit}},
		{"explicit-only-name-max-rounds-zip", spec.SweepDef{Explicit: explicit, Name: "ignored-{i}", MaxRounds: 7, Zip: true}},
		{"explicit-plus-axes", spec.SweepDef{
			Explicit:  explicit,
			Name:      "a{i}-{family}",
			Families:  []string{"complete"},
			Sizes:     []int{5},
			TeamSizes: []int{2},
		}},
		{"unknown-family-explicit-starts", spec.SweepDef{
			Graphs: []spec.GraphSpec{{Family: "nosuch", N: 4}},
			Teams:  []spec.Team{{Labels: []int{1, 2}, Starts: []int{0, 1}}},
		}},
		{"error-empty", spec.SweepDef{}},
		{"error-no-graphs", spec.SweepDef{Teams: []spec.Team{pair}}},
		{"error-sizes-without-families", spec.SweepDef{Sizes: []int{4}, Teams: []spec.Team{pair}}},
		{"error-no-teams", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}}},
		{"error-zip-mismatch", spec.SweepDef{
			Zip:    true,
			Graphs: []spec.GraphSpec{{Family: "ring", N: 4}},
			Teams:  []spec.Team{{Labels: []int{1}}, {Labels: []int{2}}},
		}},
		{"error-wake-mismatch", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, Teams: []spec.Team{pair}, Wakes: [][]int{{0, 1, 2}}}},
		{"error-team-wakes-mismatch", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, Teams: []spec.Team{{Labels: []int{1, 2}, Wakes: []int{0}}}}},
		{"error-starts-mismatch", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, Teams: []spec.Team{{Labels: []int{1, 2}, Starts: []int{0}}}}},
		{"error-team-without-labels", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, Teams: []spec.Team{{}}}},
		{"error-team-size-zero", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, TeamSizes: []int{0}}},
		{"error-team-size-negative", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{4}, TeamSizes: []int{2, -1}}},
		{"error-team-size-before-axes", spec.SweepDef{TeamSizes: []int{-3}}},
		{"error-unknown-family-spread", spec.SweepDef{Graphs: []spec.GraphSpec{{Family: "nosuch", N: 4}}, Teams: []spec.Team{pair}}},
		{"error-bad-size-spread", spec.SweepDef{Families: []string{"ring"}, Sizes: []int{8, 2}, Teams: []spec.Team{pair}}},
		{"error-explicit-plus-wakes", spec.SweepDef{Explicit: explicit, Wakes: [][]int{{0, 0}}}},
		{"error-explicit-plus-team-size-zero", spec.SweepDef{Explicit: explicit, TeamSizes: []int{0}}},
	}
}

// TestGoldenSweepExpansion pins what SweepDef.Specs makes of a fixed corpus
// of definitions: one SHA-256 over each definition's expanded specs as
// JSON, or its error text. A change to the expansion code that claims to
// leave its output alone must leave the digest unchanged; -update rewrites
// it.
func TestGoldenSweepExpansion(t *testing.T) {
	h := sha256.New()
	for _, c := range goldenSweeps() {
		var line string
		if specs, err := c.def.Specs(); err != nil {
			// The unknown-family error lists the registered families,
			// which depend on what other tests of this binary registered.
			msg, _, _ := strings.Cut(err.Error(), " (have ")
			line = fmt.Sprintf("%s error %s\n", c.name, msg)
		} else {
			buf, err := json.Marshal(specs)
			if err != nil {
				t.Fatal(err)
			}
			line = fmt.Sprintf("%s specs %s\n", c.name, buf)
		}
		h.Write([]byte(line))
		t.Logf("%-36s %x", c.name, sha256.Sum256([]byte(line)))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if *updateGolden {
		if err := os.WriteFile(goldenSweepsFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenSweepsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("golden sweep expansion digest %s, pinned %s: some definition now expands differently "+
			"(run with -v at both commits and compare the per-definition digests)", got, strings.TrimSpace(string(want)))
	}
}
