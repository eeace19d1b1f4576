package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func specsJSON(t *testing.T, sps []ScenarioSpec) string {
	t.Helper()
	buf, err := json.Marshal(sps)
	if err != nil {
		t.Fatalf("marshal specs: %v", err)
	}
	return string(buf)
}

// TestSweepDefRoundTrip proves a definition survives its wire form:
// SweepDef → JSON → ParseSweepDef generates the identical spec list.
func TestSweepDefRoundTrip(t *testing.T) {
	def := SweepDef{
		Name:       "rt-{family}-n{n}-k{k}-{algo}-w{wake}",
		Families:   []string{"ring", "path"},
		Sizes:      []int{4, 6},
		Graphs:     []GraphSpec{{Family: "gnp", N: 8, P: 0.4, Seed: 7}},
		Teams:      []Team{{Labels: []int{3, 5, 7}, Starts: []int{0, 1, 2}}},
		TeamSizes:  []int{3},
		Wakes:      [][]int{nil, {0, 1, 2}},
		Algorithms: []AlgorithmSpec{Known(), Randomized(1<<60+3, 0)},
		MaxRounds:  123,
	}
	want, err := def.Specs()
	if err != nil {
		t.Fatalf("original sweep: %v", err)
	}

	buf, err := def.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal def: %v", err)
	}
	parsed, err := ParseSweepDef(buf)
	if err != nil {
		t.Fatalf("parse def: %v", err)
	}
	got, err := parsed.Specs()
	if err != nil {
		t.Fatalf("round-tripped sweep: %v", err)
	}
	// Compare through JSON: params round-trip as json.Number, so the wire
	// form — what compilation and hashing consume — is the equality that
	// matters.
	if g, w := specsJSON(t, got), specsJSON(t, want); g != w {
		t.Errorf("round-tripped sweep diverges:\ngot  %s\nwant %s", g, w)
	}
	if len(want) == 0 {
		t.Fatalf("sweep generated no specs")
	}
}

// TestSweepDefWakeSchedulesRespectTeamSize guards the wake axis through the
// data form: schedules whose length mismatches the team must still fail.
func TestSweepDefWakeSchedulesRespectTeamSize(t *testing.T) {
	def := SweepDef{
		Families: []string{"ring"},
		Sizes:    []int{4},
		Teams:    []Team{{Labels: []int{1, 2}}},
		Wakes:    [][]int{{0, 1, 2}},
	}
	if _, err := def.Specs(); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("mismatched wake schedule: err=%v, want length mismatch", err)
	}
}

// TestSweepDefZipAndTeamSizes exercises the two remaining axes knobs in
// data form.
func TestSweepDefZipAndTeamSizes(t *testing.T) {
	def := SweepDef{
		Graphs: []GraphSpec{{Family: "ring", N: 6}, {Family: "path", N: 5}},
		Teams:  []Team{{Labels: []int{1}}, {Labels: []int{1, 2}}},
		Zip:    true,
	}
	sps, err := def.Specs()
	if err != nil {
		t.Fatalf("zip sweep: %v", err)
	}
	if len(sps) != 2 || len(sps[0].Agents) != 1 || len(sps[1].Agents) != 2 {
		t.Fatalf("zip pairing broken: %+v", sps)
	}
	def2 := SweepDef{Families: []string{"ring"}, Sizes: []int{8}, TeamSizes: []int{2, 3}}
	sps2, err := def2.Specs()
	if err != nil {
		t.Fatalf("team_sizes sweep: %v", err)
	}
	if len(sps2) != 2 || len(sps2[0].Agents) != 2 || len(sps2[1].Agents) != 3 {
		t.Fatalf("team_sizes expansion broken: got %d specs", len(sps2))
	}
	// The canonical team matches TeamOfSize.
	if !reflect.DeepEqual(sps2[0].Agents[0], AgentSpec{Label: 1, Start: 0, Algorithm: Known()}) {
		t.Errorf("canonical team drifted: %+v", sps2[0].Agents[0])
	}
}

// TestSweepDefRejectsUnknownFields keeps hand-written sweep documents
// honest, exactly like spec parsing.
func TestSweepDefRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweepDef([]byte(`{"families":["ring"],"sizzes":[4]}`)); err == nil {
		t.Errorf("unknown field accepted")
	}
	if _, err := ParseSweepDef([]byte(`{"families":["ring"]} trailing`)); err == nil {
		t.Errorf("trailing content accepted")
	}
}

// TestSweepDefExplicitSpecs covers the explicit spec list — the wire form
// cluster shards travel in: explicit-only definitions expand to exactly
// that list, explicit + axes concatenate (explicit first), and the list
// survives a JSON round trip bit-identically.
func TestSweepDefExplicitSpecs(t *testing.T) {
	axes := SweepDef{Families: []string{"ring", "path"}, Sizes: []int{4, 6}, TeamSizes: []int{2}}
	expanded, err := axes.Specs()
	if err != nil {
		t.Fatalf("axes expansion: %v", err)
	}
	shard := expanded[1:3] // a contiguous shard of another sweep's expansion

	// Explicit-only: expansion is the list itself, no graph/team axes needed.
	only := SweepDef{Explicit: shard}
	got, err := only.Specs()
	if err != nil {
		t.Fatalf("explicit-only expansion: %v", err)
	}
	if !reflect.DeepEqual(got, shard) {
		t.Fatalf("explicit-only expansion drifted:\n%s\n%s", specsJSON(t, got), specsJSON(t, shard))
	}

	// Round trip through the wire form.
	buf, err := json.Marshal(only)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSweepDef(buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got2, err := back.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if specsJSON(t, got2) != specsJSON(t, shard) {
		t.Fatalf("wire round trip changed the specs:\n%s\n%s", specsJSON(t, got2), specsJSON(t, shard))
	}

	// Explicit + axes: explicit specs come first, then the axis product.
	both := SweepDef{Explicit: shard, Families: []string{"complete"}, Sizes: []int{5}, TeamSizes: []int{2}}
	got3, err := both.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != len(shard)+1 {
		t.Fatalf("explicit+axes expanded to %d specs, want %d", len(got3), len(shard)+1)
	}
	if !reflect.DeepEqual(got3[:len(shard)], shard) || got3[len(shard)].Graph.Family != "complete" {
		t.Fatalf("explicit+axes order drifted: %s", specsJSON(t, got3))
	}

	// A definition with neither explicit specs nor axes still fails.
	if _, err := (SweepDef{}).Specs(); err == nil {
		t.Error("empty definition expanded without error")
	}
}
