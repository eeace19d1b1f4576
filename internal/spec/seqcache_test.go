package spec

import (
	"testing"

	"nochatter/internal/graph"
)

// TestSequenceMemoSharesAcrossCompilations proves repeated compilations of
// one graph shape share a single ues.Sequence, distinct shapes do not, and
// re-registering a family invalidates its memoized sequences.
func TestSequenceMemoSharesAcrossCompilations(t *testing.T) {
	resetSequenceMemo()
	t.Cleanup(resetSequenceMemo)

	sp := ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 8},
		Agents: []AgentSpec{
			{Label: 1, Start: 0, Algorithm: Known()},
			{Label: 2, Start: 4, Algorithm: Known()},
		},
	}
	_, ar1, err := sp.CompileArtifacts()
	if err != nil {
		t.Fatalf("compile 1: %v", err)
	}
	_, ar2, err := sp.CompileArtifacts()
	if err != nil {
		t.Fatalf("compile 2: %v", err)
	}
	if ar1.Sequence() != ar2.Sequence() {
		t.Errorf("identical specs built two sequences; the memo is not shared")
	}

	other := sp
	other.Graph = GraphSpec{Family: "ring", N: 10}
	other.Agents = []AgentSpec{
		{Label: 1, Start: 0, Algorithm: Known()},
		{Label: 2, Start: 5, Algorithm: Known()},
	}
	_, ar3, err := other.CompileArtifacts()
	if err != nil {
		t.Fatalf("compile other: %v", err)
	}
	if ar3.Sequence() == ar1.Sequence() {
		t.Errorf("different graph shapes share one sequence")
	}

	// Re-registering the family must drop its memo entries: the new
	// builder may denote different graphs. The built-in builder comes back
	// when the test ends.
	withGraphFamily(t, "ring", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 3, "ring"); err != nil {
			return nil, err
		}
		return graph.Ring(gs.N), nil
	})
	_, ar4, err := sp.CompileArtifacts()
	if err != nil {
		t.Fatalf("compile after re-register: %v", err)
	}
	if ar4.Sequence() == ar1.Sequence() {
		t.Errorf("memo survived a family re-registration")
	}
}

// TestSequenceMemoBounded keeps the memo from growing without limit.
func TestSequenceMemoBounded(t *testing.T) {
	resetSequenceMemo()
	t.Cleanup(resetSequenceMemo)
	for n := 3; n < 3+seqMemoCap+16; n++ {
		gs := GraphSpec{Family: "ring", N: n}
		g, err := BuildGraph(gs)
		if err != nil {
			t.Fatalf("build ring %d: %v", n, err)
		}
		sequenceFor(gs, g)
	}
	seqMu.Lock()
	size := len(seqMemo)
	seqMu.Unlock()
	if size > seqMemoCap {
		t.Errorf("memo holds %d entries, cap is %d", size, seqMemoCap)
	}
}

// The benchmark pair quantifies the satellite's win: compiling a spec with
// a cold memo rebuilds the exploration sequence (the expensive
// cover-from-every-start construction) every time; the warm memo makes
// repeat compilations of one shape — a service's cache-miss traffic for a
// popular size — pay only graph construction and program building.

func benchSpec() ScenarioSpec {
	return ScenarioSpec{
		Graph: GraphSpec{Family: "ring", N: 64},
		Agents: []AgentSpec{
			{Label: 1, Start: 0, Algorithm: Known()},
			{Label: 2, Start: 32, Algorithm: Known()},
		},
	}
}

func BenchmarkCompileSequenceCold(b *testing.B) {
	sp := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resetSequenceMemo()
		_, ar, err := sp.CompileArtifacts()
		if err != nil {
			b.Fatal(err)
		}
		ar.Sequence()
	}
	resetSequenceMemo()
}

func BenchmarkCompileSequenceMemoized(b *testing.B) {
	sp := benchSpec()
	resetSequenceMemo()
	if _, ar, err := sp.CompileArtifacts(); err != nil {
		b.Fatal(err)
	} else {
		ar.Sequence() // warm the memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ar, err := sp.CompileArtifacts()
		if err != nil {
			b.Fatal(err)
		}
		ar.Sequence()
	}
	b.StopTimer()
	resetSequenceMemo()
}
