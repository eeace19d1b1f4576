package agg

import (
	"bytes"
	"testing"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// testSweepSpecs builds a small multi-axis sweep: two families × three
// sizes × two team sizes × two algorithms — enough groups that fold order
// and grouping both matter.
func testSweepSpecs(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	specs, err := spec.SweepDef{
		Name:       "agg-{family}-n{n}-k{k}-{algo}",
		Families:   []string{"ring", "path"},
		Sizes:      []int{4, 6, 8},
		TeamSizes:  []int{2, 3},
		Algorithms: []spec.AlgorithmSpec{spec.Known(), spec.Baseline()},
	}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*3*2*2 {
		t.Fatalf("expected 24 specs, got %d", len(specs))
	}
	return specs
}

// TestSummaryParallelismInvariance is the package's headline property: the
// canonical summary of a sweep is bit-identical whether it was folded by
// one worker or by many, and equals the summary recomputed sequentially
// from the fully materialized raw result set.
func TestSummaryParallelismInvariance(t *testing.T) {
	specs := testSweepSpecs(t)
	scs, err := spec.CompileAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	canon := func(s *Summary) []byte {
		t.Helper()
		buf, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	seq := canon(SummarizeScenarios(sim.NewRunner(sim.WithParallelism(1)), specs, scs))
	for _, p := range []int{2, 4, 8} {
		par := canon(SummarizeScenarios(sim.NewRunner(sim.WithParallelism(p)), specs, scs))
		if !bytes.Equal(seq, par) {
			t.Fatalf("parallelism %d summary differs from sequential:\n%s\n%s", p, seq, par)
		}
	}

	// Recompute from raw: materialize every result with RunBatch, fold them
	// one by one in input order into a fresh summary.
	raw := NewSummary()
	for _, br := range sim.NewRunner(sim.WithParallelism(4)).RunBatch(scs) {
		raw.Observe(KeyOf(specs[br.Index]), br.Result, br.Err, br.Wall)
	}
	if !bytes.Equal(seq, canon(raw)) {
		t.Fatal("streamed summary differs from summary recomputed from raw results")
	}
}

// TestSummaryGroups checks the group-by: every axis combination lands in
// its own cell, cells add up to the total, and successful gathering is
// counted per group.
func TestSummaryGroups(t *testing.T) {
	specs := testSweepSpecs(t)
	s, err := Summarize(sim.NewRunner(sim.WithParallelism(4)), specs)
	if err != nil {
		t.Fatal(err)
	}
	groups := s.Groups()
	if len(groups) != 24 {
		t.Fatalf("expected 24 groups, got %d", len(groups))
	}
	var runs, gathered int64
	for _, g := range groups {
		if g.Runs != 1 {
			t.Fatalf("group %+v has %d runs, want 1", g.Key, g.Runs)
		}
		runs += g.Runs
		gathered += g.Gathered
	}
	if runs != s.Total.Runs {
		t.Fatalf("group runs %d != total %d", runs, s.Total.Runs)
	}
	if gathered != s.Total.Gathered || gathered != runs {
		t.Fatalf("every run should gather: gathered=%d runs=%d", gathered, runs)
	}
	c, ok := s.Group(Key{Family: "ring", N: 8, K: 2, Algo: "known"})
	if !ok || c.Runs != 1 || c.Rounds.Count != 1 {
		t.Fatalf("missing or wrong cell for ring/8/2/known: %+v ok=%v", c, ok)
	}
	if c.Moves.Sum <= 0 {
		t.Fatal("gathering on a ring must record moves")
	}
}

// TestSummaryErrorsFold checks failed runs fold as errors (wall observed,
// no round/move observations) instead of aborting the fold.
func TestSummaryErrorsFold(t *testing.T) {
	specs := []spec.ScenarioSpec{
		{
			Name:  "ok",
			Graph: spec.GraphSpec{Family: "ring", N: 6},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Known()},
				{Label: 2, Start: 3, Algorithm: spec.Known()},
			},
		},
		{
			Name:      "budget",
			Graph:     spec.GraphSpec{Family: "ring", N: 6},
			MaxRounds: 3, // far below the gathering time: ErrMaxRounds
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Known()},
				{Label: 2, Start: 3, Algorithm: spec.Known()},
			},
		},
	}
	s, err := Summarize(sim.NewRunner(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total.Runs != 2 || s.Total.Errors != 1 || s.Total.Gathered != 1 {
		t.Fatalf("got runs=%d errors=%d gathered=%d", s.Total.Runs, s.Total.Errors, s.Total.Gathered)
	}
	if s.Total.Rounds.Count != 1 {
		t.Fatalf("failed run must not contribute a rounds observation, count=%d", s.Total.Rounds.Count)
	}
	if s.Total.Wall.Count != 2 {
		t.Fatalf("every run costs wall time, count=%d", s.Total.Wall.Count)
	}
}

// TestKeyOfMixedTeam checks mixed-algorithm teams get a deterministic
// composite algo label.
func TestKeyOfMixedTeam(t *testing.T) {
	sp := spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: "ring", N: 4},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 1, Algorithm: spec.Baseline()},
			{Label: 3, Start: 2, Algorithm: spec.Known()},
		},
	}
	k := KeyOf(sp)
	want := Key{Family: "ring", N: 4, K: 3, Algo: "baseline+known"}
	if k != want {
		t.Fatalf("got %+v, want %+v", k, want)
	}
}

// TestSummaryJSONRoundTrip proves a summary survives the wire and that the
// canonical encoding excludes wall time.
func TestSummaryJSONRoundTrip(t *testing.T) {
	specs := testSweepSpecs(t)
	s, err := Summarize(sim.NewRunner(sim.WithParallelism(2)), specs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := NewSummary()
	if err := back.UnmarshalJSON(buf); err != nil {
		t.Fatal(err)
	}
	buf2, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("summary round trip changed encoding")
	}
	if !bytes.Contains(buf, []byte(`"wall_ns"`)) {
		t.Fatal("wire form must carry wall time")
	}
	canon, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(canon, []byte(`"wall_ns":{"count":0`)) {
		t.Fatal("canonical form must zero wall time")
	}
}
